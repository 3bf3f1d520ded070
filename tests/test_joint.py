"""Joint-measurability constructions, the oracle, and threshold search."""

import hashlib
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from unsharpjoint import (
    LAMBDA_OPT,
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    Effect,
    FeasibilityReport,
    JointObservable,
    Projector,
    ValidationError,
    check_joint,
    chsh,
    criterion_value,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    pvm_joint_observable,
    qubit_joint_observable,
    smear,
    smeared_chsh,
    two_projector_blocks,
    worst_case_pair,
)
from unsharpjoint import joint
from unsharpjoint.cli import feasibility_to_json
from unsharpjoint.joint import (
    CERTIFICATE_EVERY, CRITERION_SLACK, _bloch_pair, _observable_pair, _yes,
    qubit_verdicts,
)
from unsharpjoint.operators import CERTIFICATE_MARGIN, CLUSTER_TOL, PSD_TOL, _max_abs, identity

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
Z = BlochVector(np.array([0.0, 0.0, 1.0]))
X = BlochVector(np.array([1.0, 0.0, 0.0]))


def _ray(vec):
    """The rank-1 projector onto the ray of a nonzero vector."""
    u = np.array(vec, dtype=complex)
    u /= np.linalg.norm(u)
    return Projector.from_matrix(np.outer(u, u.conj()))


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _projector_of(b: BlochVector) -> Projector:
    """The rank-1 projector (I + v.sigma) / 2 of a Bloch vector, through the public check."""
    return Projector(b.observable().yes_effect.matrix, rank=1)


def _random_effect(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = rng.uniform(0, 1, size=dim)
    return Effect((q * eigs) @ q.conj().T)


def _near_sharp_effect(rng, dim):
    """A Haar-random eigenbasis with Beta(0.3, 0.3) eigenvalues, crowded at 0 and 1."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return (q * rng.beta(0.3, 0.3, size=dim)) @ q.conj().T


def _random_rotation(rng):
    g = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _assert_certifies_no(rep, o1lam, o2lam):
    """Re-verify an oracle "no" in plain numpy: four PSD matrices H_jk with
    H_pp - H_pm - H_mp + H_mm = 0, whose pairing with the affine point
    (0, Y1, Y2, I - Y1 - Y2) built from the targets lies below the oracle's
    margin -CERTIFICATE_MARGIN d |H|_F; every tolerance scales with |H|_F
    alone.  Every joint observable pairs non-negatively with H and lies on
    the affine set, where the pairing is constant, so none exists."""
    assert rep.feasible == "no"
    h = np.asarray(rep.certificate)
    d = o1lam.dim
    assert h.shape == (4, d, d)
    assert not h.flags.writeable
    scale = float(np.linalg.norm(h))
    for hjk in h:
        assert np.max(np.abs(hjk - hjk.conj().T)) <= 1e-15 * scale
        assert np.linalg.eigvalsh(hjk)[0] >= -1e-12 * scale
    assert np.max(np.abs(h[0] - h[1] - h[2] + h[3])) <= 1e-12 * scale
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
    affine = (np.zeros((d, d)), y1, y2, np.eye(d) - y1 - y2)
    pairing = sum(np.trace(hjk @ ajk).real for hjk, ajk in zip(h, affine))
    assert pairing < -CERTIFICATE_MARGIN * d * scale


def _threshold_probes(delta):
    """Five seeded qubit pairs, each smeared to (1 + delta) times its threshold."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        m, n = (BlochVector.normalized(rng.normal(size=3)) for _ in range(2))
        lam = 2.0 / criterion_value(m, n, 1.0) * (1.0 + delta)
        yield smear(m.observable(), lam), smear(n.observable(), lam)


def _oracle_start(o1lam, o2lam):
    """The oracle's start: the midpoint witness of the smeared contrasts at lam = 1,
    built as the affine point of the targets' marginals whose moment
    G_pp - G_pm - G_mp + G_mm is the witness's own, (|A+B| - |A-B|) / 2."""
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
    eye = identity(o1lam.dim)
    base = np.array([np.full_like(eye, complex(-0.0, -0.0)), y1, y2, eye - y1 - y2])
    abs_sum, abs_diff = joint._abs_pair(2.0 * y1 - eye, 2.0 * y2 - eye)
    return joint._affine_project((abs_sum - abs_diff) / 2.0, base, 0.5 * (y1 + y2), 0.25 * eye)


def _sha256(stack) -> str | None:
    return None if stack is None else hashlib.sha256(np.asarray(stack).tobytes()).hexdigest()


# Draws of default_rng(48) in the order of TestFeasibilityOracle's
# test_no_iterate_moves: index -> (verdict, iterations, sha256 of the
# certificate bytes) of each near-sharp pair whose oracle makes more than one
# projection, and at d = 2 also (min_eigenvalue.hex(), sha256 of the witness
# bytes).  Computed before the oracle tested its start; the certificates and the
# d = 2 witnesses re-pinned when the start was built from its moment
# (|A+B| - |A-B|) / 2 instead of projected back from _witnesses, with every
# verdict and iteration count as it was.
_PINNED_PATHS = {
    1: ('yes', 14, None),
    2: ('no', 24, '62420d7175305366bad71089b4870e7e69073e20b6ffcecdd80c7cf8fd0e58cd'),
    4: ('no', 54, 'a5e3582d618f56456baa2f501b5477bb70634776f14a4cfecc9dd8907fab8e64'),
    6: ('yes', 23, None),
    8: ('yes', 3, None, '-0x1.4eb5800000000p-42', 'd2352b0e5cb01c236febe2a4c621d29907aa8b234b03f6b6b3cd66c7cc2a7e44'),
    9: ('no', 32, 'feb9c826f8ae582d6f777d3bcf444c7de45aea35b5d2d0215031052a064744a3'),
    10: ('yes', 3, None, '-0x1.f100000000000p-50', 'bfb569c76472a4e1057f79033c211e5f4f072c7fc47f8c9c550ac5ddc2de31e7'),
    11: ('yes', 132, None),
    14: ('no', 42, '91be9e65a459eff8688d22e20f803932e529a0e4ca06d8b9c794dbef6fb9a841'),
    18: ('no', 44, '5b11e18ea5c9a65f9cfe4a24c665371060f033e54859897f46dfb5977b145994'),
    19: ('no', 46, '36de8e8c4586d703be6678773cb1f859e053f6215732a751f84b93a2dacdcb71'),
    20: ('no', 31, '1ea961dea0bcf4dc0a438d6d7d79b48dc522a5780f155ec03ae898f4d9291e5b'),
    22: ('yes', 47, None),
    24: ('no', 17, '2ad76bdf4147216c647f180fc14b748c9af842161db3cc3160a60d113b51a1bd'),
    25: ('yes', 3, None),
    26: ('no', 51, '755edc707a355f21bb624d132ffb52946c729511c5448964981429a237958963'),
    28: ('no', 6, '1a60d4fa1225a28b9da704dea880f538adfa6b2696bfb0c789a5223dd305e80e'),
    29: ('no', 11, 'ff0cbc7fff53f97f09b8417f8252a850dd382ebda32afa2989e4427db74f306f'),
    31: ('no', 6, 'ae5a22768609f792d02e046566d44869fa41cb1d2e746e68c8e3cf1f39eeb16b'),
    32: ('yes', 5, None),
    33: ('no', 49, '2324d425066d0710559bc7ee76fcd8f962c4c5aa6fe9102c25df25d0b6a7009c'),
    34: ('no', 11, '467120cb6722254828f69c179241f8efe933c811e668b3a0182e0efef29d5c28'),
    35: ('yes', 15, None),
    36: ('yes', 17, None),
    37: ('no', 6, '2c7ac61b3c71e150cc6aa981915a78c3834a1ebeede912f7ee7e96ec56ab5a8b'),
    38: ('yes', 3, None),
    39: ('yes', 3, None),
    40: ('yes', 3, None, '-0x1.f67a000000000p-42', 'a864c9ce358e16e94793ca60af865ae8ce3087352436eff6f785e0427bfc4554'),
    41: ('no', 16, '2deeb3fac36e560346174a41cdf28609ffe9923967de181815c8d917df7dd927'),
    43: ('no', 33, '5dad9cedbc37786bcea4f319ec30d5538a5d639d84a7b69e4ef117c9f08e2cd7'),
    44: ('no', 6, '73a1da4faf935da189d259a30bc3bdf7543db058d3819d440fa56f10d52853fa'),
    45: ('no', 11, '7f3ace4b13822891027ad2cf05cf84bfb391f45f180c30b64cd4e4324c086014'),
    46: ('yes', 3, None),
    47: ('yes', 9, None),
    50: ('yes', 13, None),
    53: ('yes', 12, None),
    56: ('no', 11, 'd08e56193644586e1c996cc52e93db54f376e2ba96b6041edc5f071830e68e00'),
    57: ('no', 11, 'e8473929b5066a4d7b970e0b3235b44d4f65a0c56015b5e255f302f7e55b5903'),
    58: ('yes', 24, None),
    59: ('yes', 3, None),
    63: ('yes', 3, None),
    64: ('no', 6, 'd78952425357e9207b0783c909b0d8eb11cbde69831a7790fc8cb5f2ebc0821a'),
    66: ('no', 6, '088da8fc20b707e057f8eacc41d9b4345654eaf8ea7e39f658da6fc7a848e4a6'),
    67: ('yes', 18, None),
    68: ('no', 56, '62e877d5d4c5bf4c59f97621bf796b436a20da8335fa3a546b4ac2b5fb49b686'),
    70: ('no', 18, '7f4ad438a896d53e8dc2cef1d79aaf9b2aa0faefc0f8e9432f2d97770c123f5f'),
    71: ('yes', 13, None),
    73: ('yes', 9, None),
    74: ('no', 6, 'c343559d5dc4e92ae88cfcfafacc65e3c66d5607638716001816467dc4f173ed', '-0x1.a0ad49d83c95cp-6', None),
    75: ('no', 6, '8be3bc609b6f1c57c57c606585853208700d58f7adc45bea5549e57bff13696f'),
    77: ('yes', 18, None),
    78: ('yes', 3, None, '-0x1.61bd800000000p-41', '717e123135a73e3bf2edbabac80793c2c50cfe6a331d0f5a2644ff4218d690f3'),
}


def _assert_certifies_no_exactly(h, o1lam, o2lam):
    """Re-verify a qubit oracle "no" in exact rational arithmetic on its floats.

    Each H_jk + eps I, eps four ulps of |H|_F for the rounding of the PSD
    shift, is PSD by its principal minors; K = H_pp - H_pm - H_mp + H_mm
    pairs with every 0 <= F <= I to at most the sum of |Re K_ij| + |Im K_ij|.
    Every joint observable is G = (F, Y1 - F, Y2 - F, I - Y1 - Y2 + F) with
    PSD effects summing to I, so <H, G> >= -eps d and <H, G> <= pairing + that
    sum, where the pairing is <H, (0, Y1, Y2, I - Y1 - Y2)>: both cannot hold
    when pairing + sum + eps d < 0."""
    def exact(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    assert h.shape == (4, 2, 2)
    eps = Fraction(4 * np.finfo(float).eps) * Fraction(float(np.linalg.norm(h)))
    for hjk in h:
        (a, a_im), (br, bi), (cr, ci), (c, c_im) = map(exact, hjk.ravel())
        assert a_im == c_im == 0 and (cr, ci) == (br, -bi)  # exactly Hermitian
        assert a + eps >= 0 and c + eps >= 0 and (a + eps) * (c + eps) - br * br - bi * bi >= 0
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
    pairing = bound = Fraction(0)
    for i, j in itertools.product(range(2), repeat=2):
        hs = [exact(hjk[i, j]) for hjk in h]
        u, v = exact(y1[i, j]), exact(y2[i, j])
        base = [(0, 0), u, v, (int(i == j) - u[0] - v[0], -u[1] - v[1])]
        pairing += sum(hr * br + hi * bi for (hr, hi), (br, bi) in zip(hs, base))
        bound += sum(abs(hs[0][p] - hs[1][p] - hs[2][p] + hs[3][p]) for p in (0, 1))
    assert pairing + bound + 2 * eps < 0


class TestBlochVector:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValidationError):
            BlochVector(np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="bloch-finite"):
            BlochVector(np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("v", [[0.0, 1.0], [[0.0, 0.0, 1.0]] * 2, [1.0, 0.0, 0.0, 0.0]])
    def test_wrong_shape_rejected(self, v):
        with pytest.raises(ValidationError, match="bloch-3-vector"):
            BlochVector(v)

    @pytest.mark.parametrize(
        "v", [["1", "0", "0"], ["0", 1, 0], [1j, 0, 0], [10**400, 0, 0], [0, 0, -(10**400)]],
        ids=["strings", "one-string", "complex", "huge-int", "huge-negative-int"],
    )
    @pytest.mark.parametrize(
        "build", [BlochVector, BlochVector.normalized], ids=["init", "normalized"],
    )
    def test_non_numeric_entries_rejected(self, build, v):
        # Strings were read as numbers, and a huge int raised a bare OverflowError.
        with pytest.raises(ValidationError, match="bloch-3-vector"):
            build(v)

    @pytest.mark.parametrize(
        "v, norm", [([0.0, 0.0, 0.0], "0.0"), ([math.nan, 0.0, 1.0], "nan"), ([math.inf, 0.0, 0.0], "inf"),
                    ([1e200, math.inf, 0.0], "inf")]
    )
    def test_normalized_rejects_degenerate_norm(self, v, norm):
        # The last |v|^2 overflows as the refusal reports it: no RuntimeWarning under -W error.
        with pytest.raises(ValidationError, match=f"^bloch-nonzero-finite-norm: norm {norm}$"):
            BlochVector.normalized(v)

    @settings(max_examples=100)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)
           .filter(any), st.floats(-0.99e-12, 0.99e-12))
    def test_normalized_takes_every_finite_nonzero_vector(self, v, off):
        # Where |v|^2 overflows or loses its bits below the normal range, v is
        # rescaled first.  What normalized stores, and what the constructor
        # stores of it scaled to the window's edges, is v / |v|: unit to 2 ulp,
        # along v, and paired with itself at a top of 2 to 4 ulp.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = BlochVector.normalized(v)
        u = np.array(v) / np.abs(v).max()  # v's direction, with no overflow or underflow in |u|
        u /= np.linalg.norm(u)
        for c in (b, BlochVector(b.v * (1.0 + off))):
            assert abs(np.linalg.norm(c.v) - 1.0) <= 2 * math.ulp(1.0)
            assert np.abs(c.v - u).max() <= 1e-15
            assert _bloch_pair(c, c).top() <= 2.0 + 4 * math.ulp(1.0)

    @given(
        st.lists(
            st.one_of(st.floats(-1e100, 1e100), st.sampled_from([math.nan, math.inf, -math.inf])),
            min_size=3,
            max_size=3,
        )
    )
    def test_normalized_is_unit_or_typed_error(self, v):
        try:
            b = BlochVector.normalized(v)
        except ValidationError:
            return
        assert np.isfinite(b.v).all()
        assert abs(np.linalg.norm(b.v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0 + 0.9e-12, 1.0 - 0.9e-12], ids=["over", "under"])
    @pytest.mark.parametrize("direction", [*np.eye(3), np.random.default_rng(98).normal(size=3)],
                             ids=["x", "y", "z", "seeded"])
    def test_a_vector_at_the_window_s_edge_is_decided_as_a_unit_vector(self, direction, scale):
        # m with itself is jointly measurable at lambda = 1 on every path.  Kept
        # as given, m = (0, 0, 1 + 0.9e-12) read lambda * top - 2 = 1.8e-12 past
        # the slack: a "no" from both qubit paths, while the oracle said "yes".
        m = BlochVector(direction / np.linalg.norm(direction) * scale)
        rep = qubit_joint_observable(m, m, 1.0)
        assert (rep.feasible, rep.iterations) == ("yes", 0)
        assert qubit_verdicts(m, m, [1.0]) == ["yes"]
        assert povm_joint_observable(m.observable(), m.observable(), 1.0).feasible == "yes"
        assert lambda_opt_search(m, m) == 1.0
        assert criterion_value(m, m, 1.0) <= 2.0 + 4.4e-16

    @pytest.mark.parametrize("wing", [0, 1], ids=["m", "n"])
    @pytest.mark.parametrize(
        "call",
        [qubit_joint_observable, criterion_value,
         lambda m, n, lam: qubit_verdicts(m, n, [lam])],
        ids=["qubit_joint_observable", "criterion_value", "qubit_verdicts"],
    )
    @pytest.mark.parametrize(
        "raw", [[0.0, 0.0, 1.0], (0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0])],
        ids=["list", "tuple", "ndarray"],
    )
    def test_a_raw_vector_is_refused(self, raw, call, wing):
        # Each takes BlochVectors only, as lambda_opt_search does.
        pair = [Z, X]
        pair[wing] = raw
        with pytest.raises(ValidationError, match=rf"^bloch-vector: got {type(raw).__name__}$"):
            call(*pair, 0.5)


class TestQubitJointObservable:
    def test_identical_directions_feasible_at_any_lambda(self):
        rep = qubit_joint_observable(Z, Z, 1.0)
        assert rep.feasible == "yes"
        assert rep.min_eigenvalue >= -1e-15

    def test_boundary_saturation(self):
        # z against x at lam = 1/sqrt(2): feasible with every outcome
        # effect touching zero.
        rep = qubit_joint_observable(Z, X, LAMBDA_OPT)
        assert rep.feasible == "yes"
        for e in rep.witness.effects:
            assert abs(float(np.linalg.eigvalsh(e.matrix)[0])) < 1e-9

    def test_above_boundary_infeasible_and_oracle_agrees(self):
        rep = qubit_joint_observable(Z, X, 0.72)
        assert rep.feasible == "no"
        assert rep.certificate is None
        o1lam, o2lam = smear(Z.observable(), 0.72), smear(X.observable(), 0.72)
        _assert_certifies_no(feasibility_oracle(o1lam, o2lam), o1lam, o2lam)

    def test_a_no_builds_no_observable(self):
        # A "no" needs only top; building the two observables would cost more
        # than the rest of the decision.
        m, n = BlochVector([0.0, 0.0, 1.0]), BlochVector([1.0, 0.0, 0.0])
        assert qubit_joint_observable(m, n, 0.72).feasible == "no"
        assert m._observable is None and n._observable is None

    def test_witness_residuals_tiny(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            m = BlochVector(_random_unit(rng))
            n = BlochVector(_random_unit(rng))
            rep = qubit_joint_observable(m, n, 0.6)
            res = check_joint(
                rep.witness, smear(m.observable(), 0.6), smear(n.observable(), 0.6)
            )
            assert res.marginal_max <= 1e-12
            assert res.min_eigenvalue >= -1e-12

    def test_antipodal_directions(self):
        # m = -n degenerates |m+n| to zero; the construction stays valid
        # for every lambda (the pair shares one sharp measurement).
        rep = qubit_joint_observable(Z, BlochVector([0.0, 0.0, -1.0]), 1.0)
        assert rep.feasible == "yes"
        res = check_joint(
            rep.witness,
            smear(Z.observable(), 1.0),
            smear(BlochVector(np.array([0.0, 0.0, -1.0])).observable(), 1.0),
        )
        assert res.marginal_max <= 1e-12
        assert res.min_eigenvalue >= -1e-12

    def test_verdict_rotation_invariant(self):
        rng = np.random.default_rng(103)
        m, n = _random_unit(rng), _random_unit(rng)
        lam = 0.69
        base = qubit_joint_observable(BlochVector(m), BlochVector(n), lam)
        for _ in range(10):
            r = _random_rotation(rng)
            rep = qubit_joint_observable(
                BlochVector.normalized(r @ m), BlochVector.normalized(r @ n), lam
            )
            assert rep.feasible == base.feasible
            assert rep.min_eigenvalue == pytest.approx(base.min_eigenvalue, abs=1e-9)

    def test_feasibility_monotone_in_lambda(self):
        # Feasible at lam implies feasible at every smaller lam: sweeping
        # lam upward, the verdict flips yes -> no at most once.
        rng = np.random.default_rng(107)
        for _ in range(200):
            m = BlochVector(_random_unit(rng))
            n = BlochVector(_random_unit(rng))
            verdicts = [
                qubit_joint_observable(m, n, lam).feasible
                for lam in np.linspace(0.05, 1.0, 20)
            ]
            flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
            assert flips <= 1
            if flips:
                assert verdicts[0] == "yes" and verdicts[-1] == "no"


class TestPvmJointObservable:
    def test_commuting_pair_feasible_at_lambda_one(self):
        p = Projector.from_matrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        q = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
        rep = pvm_joint_observable(p, q, 1.0)
        assert rep.feasible == "yes"
        assert rep.marginal_residual <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [1.0, 0.9, LAMBDA_OPT])
    def test_commuting_pair_takes_the_midpoint_witness(self, seed, lam):
        # On a commuting pair |A+B| - |A-B| = 2AB, so the witness is the
        # midpoint (I + lam (j A + k B) + jk lam A B) / 4, for every lam.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 11))
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        p, q = (
            Projector.from_matrix((u * rng.integers(0, 2, size=d)) @ u.conj().T)
            for _ in range(2)
        )
        rep = pvm_joint_observable(p, q, lam)
        assert rep.feasible == "yes"
        eye = np.eye(d)
        a, b = 2.0 * p.matrix - eye, 2.0 * q.matrix - eye
        for (j, k), e in zip(((1, 1), (1, -1), (-1, 1), (-1, -1)), rep.witness.effects):
            want = (eye + lam * (j * a + k * b) + j * k * lam * (a @ b)) / 4.0
            assert np.max(np.abs(e.matrix - want)) <= 1e-15

    @pytest.mark.parametrize("decide", [
        lambda p, q: pvm_joint_observable(p, q, 0.5),
        lambda p, q: lambda_opt_search(p.observable(), q.observable()),
    ])
    def test_dimension_mismatch_is_typed(self, decide):
        with pytest.raises(ValidationError, match=r"^same-dimension: incompatible dimensions \(2, 3\)$"):
            decide(_ray([1, 0]), _ray([1, 0, 0]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
    def test_embedded_pair_threshold(self, dim):
        # |0><0| against |+><+| padded with extra basis projectors: the
        # threshold stays at 1/sqrt(2) in every dimension.
        pm = np.zeros((dim, dim), dtype=complex)
        pm[0, 0] = 1.0
        qm = np.zeros((dim, dim), dtype=complex)
        qm[:2, :2] = 0.5
        p, q = Projector.from_matrix(pm), Projector.from_matrix(qm)
        assert pvm_joint_observable(p, q, LAMBDA_OPT).feasible == "yes"
        assert pvm_joint_observable(p, q, LAMBDA_OPT + 1e-3).feasible == "no"

    def test_random_rank2_pair_in_c6(self):
        rng = np.random.default_rng(109)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u, _ = np.linalg.qr(g)
        p = Projector(u[:, :2] @ u[:, :2].conj().T, rank=2)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u, _ = np.linalg.qr(g)
        q = Projector(u[:, :2] @ u[:, :2].conj().T, rank=2)
        rep = pvm_joint_observable(p, q, 0.5)
        assert rep.feasible == "yes"
        res = check_joint(
            rep.witness, smear(p.observable(), 0.5), smear(q.observable(), 0.5)
        )
        assert res.marginal_max <= 1e-9
        assert res.min_eigenvalue >= -1e-9

    def test_blockwise_residual_equals_max_block_residual(self):
        # In the adapted basis the marginal defect is block diagonal, so
        # the full residual is exactly the worst per-block residual.
        rng = np.random.default_rng(113)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u, _ = np.linalg.qr(g)
        p = Projector(u[:, :2] @ u[:, :2].conj().T, rank=2)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u, _ = np.linalg.qr(g)
        q = Projector(u[:, :3] @ u[:, :3].conj().T, rank=3)
        lam = 0.6
        rep = pvm_joint_observable(p, q, lam)
        dec = two_projector_blocks(p, q)
        target = smear(p.observable(), lam).yes_effect.matrix
        defect = (
            rep.witness.g_pp.matrix + rep.witness.g_pm.matrix - target
        )
        full = float(
            np.max(np.abs(dec.unitary.conj().T @ defect @ dec.unitary))
        )
        per_block, offset = 0.0, 0
        for blk in dec.blocks:
            b = dec.unitary[:, offset : offset + blk.dim]
            offset += blk.dim
            per_block = max(per_block, float(np.max(np.abs(b.conj().T @ defect @ b))))
        assert abs(full - per_block) <= 1e-12


class TestPovmJointObservable:
    def test_equal_povms_trivially_feasible(self):
        rng = np.random.default_rng(127)
        o = DichotomicObservable.from_yes_effect(_random_effect(rng, 2))
        rep = povm_joint_observable(o, o, 0.7)
        assert rep.feasible == "yes"
        assert rep.marginal_residual <= 1e-9

    def test_equal_povms_diagonal_witness(self):
        # The explicit diagonal witness for an equal pair: outcomes agree,
        # off-diagonal effects vanish.
        rng = np.random.default_rng(131)
        o = DichotomicObservable.from_yes_effect(_random_effect(rng, 3))
        lam = 0.65
        s = smear(o, lam)
        zero = Effect(np.zeros((3, 3), dtype=complex))
        witness = JointObservable(s.yes_effect, zero, zero, s.no_effect)
        res = check_joint(witness, s, s)
        assert res.marginal_max <= 1e-12
        assert res.min_eigenvalue >= -1e-12

    def test_shrunk_orthogonal_pair(self):
        a1 = DichotomicObservable.from_yes_effect(
            (2.0 / 3.0) * Z.observable().yes_effect.matrix + 0.0 * identity(2)
        )
        a2 = DichotomicObservable.from_yes_effect((2.0 / 3.0) * X.observable().yes_effect.matrix)
        rep = povm_joint_observable(a1, a2, LAMBDA_OPT)
        assert rep.feasible == "yes"
        res = check_joint(rep.witness, smear(a1, LAMBDA_OPT), smear(a2, LAMBDA_OPT))
        assert res.marginal_max <= 1e-9
        assert res.min_eigenvalue >= -1e-9

    def test_sharp_pair_agrees_with_pvm_path(self):
        p, q = _ray([1, 0]), _ray([1, 1])
        lam = 0.66
        via_povm = povm_joint_observable(p.observable(), q.observable(), lam)
        via_pvm = pvm_joint_observable(p, q, lam)
        # Marginals must match; the witnesses themselves may differ.
        for extract in (
            lambda w: w.g_pp.matrix + w.g_pm.matrix,
            lambda w: w.g_pp.matrix + w.g_mp.matrix,
        ):
            assert (
                np.max(np.abs(extract(via_povm.witness) - extract(via_pvm.witness)))
                <= 1e-9
            )

    def test_pair_past_lambda_opt_gets_a_verdict(self):
        # Once refused for every lam > 1/sqrt(2).  This pair's top is 2.218:
        # the contrast witness holds up to lam = 2 / top = 0.9015, and the
        # oracle decides past it.
        rng = np.random.default_rng(137)
        o1 = DichotomicObservable.from_yes_effect(_random_effect(rng, 2))
        o2 = DichotomicObservable.from_yes_effect(_random_effect(rng, 2))
        for lam in (0.8, 0.9):
            rep = povm_joint_observable(o1, o2, lam)
            assert (rep.feasible, rep.iterations) == ("yes", 0)
        rep = povm_joint_observable(o1, o2, 1.0)
        assert rep.iterations > 0
        _assert_witnesses_yes(rep, smear(o1, 1.0), smear(o2, 1.0))

    def test_commuting_unsharp_pair_feasible_at_lambda_one(self):
        # top = 1.6, so the contrast witness is PSD at lam = 1 down to
        # (2 - 1.6) / 8 = 0.05, with no oracle run.
        o1 = DichotomicObservable.from_yes_effect(np.diag([0.9, 0.2, 0.5]))
        o2 = DichotomicObservable.from_yes_effect(np.diag([0.1, 0.6, 0.3]))
        rep = povm_joint_observable(o1, o2, 1.0)
        assert (rep.feasible, rep.iterations) == ("yes", 0)
        assert rep.min_eigenvalue == pytest.approx(0.05, abs=1e-15)
        assert rep.marginal_residual <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_decision_solves_only_d_by_d_matrices(self, d, monkeypatch):
        # The witness formula acts on the contrasts themselves: no matrix
        # of the 2d-dim dilation is formed, let alone diagonalized.
        shapes = []

        def recording(real):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a)[-2:])
                return real(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        rng = np.random.default_rng(199)
        o1, o2 = (DichotomicObservable.from_yes_effect(_random_effect(rng, d)) for _ in range(2))
        assert povm_joint_observable(o1, o2, LAMBDA_OPT).feasible == "yes"
        assert shapes and set(shapes) == {(d, d)}

    def test_effects_just_outside_the_unit_interval(self):
        # |A| = |B| = 1 + 1e-9, valid at the default tolerance: the witness
        # is checked at PSD_TOL.  Just past 1/sqrt(2) the contrast witness
        # fails lam * top <= 2 + CRITERION_SLACK, and lam * beta - 2 = 2e-9 at
        # the given operators, whose smeared effects are physical (lam * radius
        # = lam * s < 1): no exactly PSD joint observable exists, and the
        # verdict is a Bell "no".  The oracle's start is already PSD to
        # -PSD_TOL: a "yes" at iteration 0, before any projection.
        s = 1.0 + 1e-9
        o1 = DichotomicObservable.from_yes_effect((identity(2) + s * PAULI_Z) / 2.0)
        o2 = DichotomicObservable.from_yes_effect((identity(2) + s * PAULI_X) / 2.0)
        rep = povm_joint_observable(o1, o2, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert rep.marginal_residual <= 1e-15
        assert -PSD_TOL <= rep.min_eigenvalue < 0.0
        lam = LAMBDA_OPT + 5e-13
        # The maximally entangled qubit pair's CHSH value with Bob at (z +- x) / sqrt(2).
        assert _observable_pair(o1, o2).bell() == pytest.approx((2.0 * math.sqrt(2.0) * s, s), rel=1e-15)
        assert lam * 2.0 * math.sqrt(2.0) * s - 2.0 == pytest.approx(2e-9, rel=1e-3)
        rep = povm_joint_observable(o1, o2, lam)
        assert (rep.feasible, rep.iterations, rep.witness) == ("no", 0, None)
        rep = feasibility_oracle(smear(o1, lam), smear(o2, lam))
        assert (rep.feasible, rep.iterations) == ("yes", 0)
        _assert_witnesses_yes(rep, smear(o1, lam), smear(o2, lam))

    def test_effects_at_the_edge_of_the_window(self):
        # Eigenvalues 1 + 0.995e-9 and -0.995e-9, inside the window PSD_TOL = 1e-9.
        s = 1.0 + 1.99e-9
        o1, o2 = (
            DichotomicObservable.from_yes_effect(Effect((identity(2) + s * pauli) / 2.0))
            for pauli in (PAULI_Z, PAULI_X)
        )
        rep = povm_joint_observable(o1, o2, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert rep.marginal_residual <= 1e-15
        assert -PSD_TOL <= rep.min_eigenvalue < 0.0

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
    def test_every_pair_is_jointly_measurable_at_lambda_opt(self, seed, d, data):
        # Eigenvalues drawn from [0, 1], exactly 0 and 1 (kept exact in the
        # standard basis), or up to 0.9 PSD_TOL outside [0, 1].
        rng = np.random.default_rng(seed)
        eig = st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0, -0.9 * PSD_TOL, 1.0 + 0.9 * PSD_TOL]),
        )
        observables = []
        for _ in range(2):
            eigs = np.array(data.draw(st.lists(eig, min_size=d, max_size=d)))
            if data.draw(st.booleans()):
                m = np.diag(eigs).astype(complex)
            else:
                u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                m = (u * eigs) @ u.conj().T
            observables.append(DichotomicObservable.from_yes_effect(m))
        rep = povm_joint_observable(*observables, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert rep.marginal_residual <= 1e-9
        assert rep.min_eigenvalue >= -PSD_TOL

    @pytest.mark.parametrize("path", ["povm", "pvm"])
    def test_no_inside_the_gate_slack(self, path):
        # The z/x value 2 sqrt(2) lam passes 2 + CRITERION_SLACK already at
        # LAMBDA_OPT + 5e-13: a correct "no" on both paths, since the sharp
        # observables are decided as their projectors.
        def decide(lam):
            if path == "povm":
                return povm_joint_observable(Z.observable(), X.observable(), lam)
            return pvm_joint_observable(_projector_of(Z), _projector_of(X), lam)

        assert decide(LAMBDA_OPT).feasible == "yes"
        rep = decide(LAMBDA_OPT + 5e-13)
        assert rep.feasible == "no"
        assert -2e-13 < rep.min_eigenvalue < 0.0


class TestCheckJoint:
    def test_corrupted_witness_reports_the_damage(self):
        rep = qubit_joint_observable(Z, X, 0.5)
        bump = np.zeros((2, 2), dtype=complex)
        bump[0, 0] = 1e-3
        corrupted = JointObservable(
            Effect(rep.witness.g_pp.matrix + bump),
            Effect(rep.witness.g_pm.matrix - bump),
            rep.witness.g_mp,
            rep.witness.g_mm,
        )
        res = check_joint(
            corrupted, smear(Z.observable(), 0.5), smear(X.observable(), 0.5)
        )
        # Row marginal is untouched; column marginal moves by the bump.
        assert res.marginal_first <= 1e-12
        assert res.marginal_second == pytest.approx(1e-3, rel=1e-6)

    def test_identity_split_against_weak_smearing(self):
        quarter = Effect(identity(2) / 4.0)
        witness = JointObservable(quarter, quarter, quarter, quarter)
        lam = 0.01
        res = check_joint(
            witness, smear(Z.observable(), lam), smear(X.observable(), lam)
        )
        assert res.marginal_max <= 0.01



_QUARTER = Effect(identity(2) / 4.0)
_QUTRIT = smear(_ray([1, 0, 0]).observable(), 0.5)


@pytest.mark.parametrize(
    "build,dims",
    [
        (lambda: DichotomicObservable(Effect(identity(2)), Effect(np.zeros((3, 3)))), (2, 3)),
        (lambda: JointObservable(_QUARTER, _QUARTER, _QUARTER, Effect(identity(3) / 4.0)), (2, 2, 2, 3)),
        (lambda: check_joint(JointObservable(*[_QUARTER] * 4), smear(Z.observable(), 0.5), _QUTRIT),
         (2, 2, 3)),
        (lambda: feasibility_oracle(smear(Z.observable(), 0.5), _QUTRIT), (2, 3)),
    ],
    ids=["observable", "joint-observable", "check-joint", "oracle"],
)
def test_operands_on_a_qubit_and_a_qutrit_are_a_dimension_mismatch(build, dims):
    # Every operand's dimension is named, in argument order.
    with pytest.raises(ValidationError) as exc:
        build()
    assert exc.value.invariant == "same-dimension"
    assert str(exc.value) == f"same-dimension: incompatible dimensions {dims}"


class TestFeasibilityOracle:
    def test_commuting_pair_fast(self):
        p = Projector.from_matrix(np.diag([1.0, 0.0]).astype(complex))
        q = Projector.from_matrix(np.diag([1.0, 0.0]).astype(complex))
        rep = feasibility_oracle(
            smear(p.observable(), 1.0), smear(q.observable(), 1.0)
        )
        assert rep.feasible == "yes"
        # The sharp witness sits on the PSD-cone boundary, so convergence
        # is asymptotic; "small" here means far below the default budget.
        assert rep.iterations <= 200
        assert rep.certificate is None

    def test_boundary_bracketing(self):
        yes = feasibility_oracle(
            smear(Z.observable(), 0.70), smear(X.observable(), 0.70)
        )
        o1lam, o2lam = smear(Z.observable(), 0.72), smear(X.observable(), 0.72)
        no = feasibility_oracle(o1lam, o2lam)
        assert yes.feasible == "yes"
        assert yes.certificate is None
        _assert_certifies_no(no, o1lam, o2lam)
        # A verified certificate ends the run; waiting for the gap to stall
        # took over 500 iterations here.
        assert no.iterations <= 100

    def test_witness_passes_check_joint(self):
        o1 = smear(Z.observable(), 0.6)
        o2 = smear(X.observable(), 0.6)
        rep = feasibility_oracle(o1, o2)
        res = check_joint(rep.witness, o1, o2)
        assert res.marginal_max <= 1e-9
        assert res.min_eigenvalue >= -1e-9

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 3e-8])
    def test_a_no_just_past_the_threshold_is_certified_fast(self, delta):
        # The Farkas margin scales with |H|_F, which shrinks with the distance
        # to the boundary: with a floor of 1 under |H|_F these probes ran the
        # whole 20,000-iteration budget to "undetermined".
        for o1lam, o2lam in _threshold_probes(delta):
            rep = feasibility_oracle(o1lam, o2lam)
            assert rep.feasible == "no" and rep.iterations < 100
            _assert_certifies_no(rep, o1lam, o2lam)
            _assert_certifies_no_exactly(rep.certificate, o1lam, o2lam)

    def test_a_non_finite_anderson_step_gives_way_to_the_plain_step(self, monkeypatch):
        # A gamma that is not finite leaves the Anderson step non-finite, and the
        # oracle takes the plain step instead.  The step used to be computed
        # with numpy's warnings on, so under filterwarnings = error its matmul
        # raised "invalid value encountered" before the guard could look.
        o1lam, o2lam = next(_threshold_probes(3e-8))
        want = feasibility_oracle(o1lam, o2lam)
        calls, solve = [], np.linalg.solve

        def planted(a, b):
            calls.append(np.shape(a))
            x = solve(a, b)
            return np.full_like(x, np.inf) if len(calls) == 1 else x

        monkeypatch.setattr(np.linalg, "solve", planted)
        rep = feasibility_oracle(o1lam, o2lam)
        assert calls
        assert rep.feasible == want.feasible == "no"
        _assert_certifies_no(rep, o1lam, o2lam)

    @pytest.mark.parametrize("kind", ["bloch", "projector", "povm"])
    def test_starts_at_the_midpoint_witness(self, kind):
        # Inside the gate the warm start, the midpoint witness of the smeared
        # contrasts, is already a joint observable: a "yes" at iteration 0,
        # before any projection, carrying the start itself, bit for bit, and
        # _decide's witness at the same lam, to rounding.
        decide = {"bloch": qubit_joint_observable, "projector": pvm_joint_observable,
                  "povm": povm_joint_observable}[kind]
        rng = np.random.default_rng(["bloch", "projector", "povm"].index(kind) + 53)
        for i in range(20):
            if kind == "bloch":
                p, q = BlochVector(_random_unit(rng)), BlochVector(_random_unit(rng))
            else:
                d = int(rng.choice([3, 4, 8]))
                if kind == "projector":
                    p, q = (_random_projector(rng, d, int(rng.integers(1, d))) for _ in range(2))
                else:
                    p, q = (DichotomicObservable.from_yes_effect(_random_effect(rng, d)) for _ in range(2))
            o1, o2 = (x if kind == "povm" else x.observable() for x in (p, q))
            threshold = lambda_opt_search(*((p, q) if kind == "bloch" else (o1, o2)))
            lam = threshold if i % 4 == 0 else threshold * float(rng.uniform(0.5, 1.0))
            closed = decide(p, q, lam)
            o1lam, o2lam = smear(o1, lam), smear(o2, lam)
            rep = feasibility_oracle(o1lam, o2lam)
            assert (closed.feasible, closed.iterations) == ("yes", 0)
            assert (rep.feasible, rep.iterations) == ("yes", 0)
            _assert_witnesses_yes(rep, o1lam, o2lam)
            assert np.stack([g.matrix for g in rep.witness.effects]).tobytes() == _oracle_start(o1lam, o2lam).tobytes()
            for g, w in zip(rep.witness.effects, closed.witness.effects):
                assert _max_abs(g.matrix - w.matrix) <= 1e-14

    @pytest.mark.parametrize("kind", ["bloch", "projector", "povm"])
    def test_the_start_is_the_affine_point_of_the_witness_s_moment(self, kind):
        # The affine projection reads only G_pp - G_pm - G_mp + G_mm, which for
        # the witness at lam is lam (|A+B| - |A-B|) / 2: the oracle builds its
        # start from that moment, and where the start is PSD its "yes" carries
        # the projection of the witness stack, (F, Y1 - F, Y2 - F, I - Y1 - Y2 + F)
        # with F = (G_pp - G_pm - G_mp + G_mm) / 4 + (Y1 + Y2) / 2 - I / 4, to an ulp.
        rng = np.random.default_rng(["bloch", "projector", "povm"].index(kind) + 49)
        psd_starts = 0
        for _ in range(30):
            if kind == "bloch":
                o1, o2 = (BlochVector(_random_unit(rng)).observable() for _ in range(2))
            elif kind == "projector":
                d = int(rng.integers(2, 17))
                o1, o2 = (_random_projector(rng, d, int(rng.integers(1, d))).observable() for _ in range(2))
            else:
                d = int(rng.integers(2, 17))
                o1, o2 = (DichotomicObservable.from_yes_effect(_near_sharp_effect(rng, d)) for _ in range(2))
            lam = 1.0 - float(rng.uniform(0.0, 0.5))
            a, b = o1.difference(), o2.difference()
            abs_sum, abs_diff = joint._abs_pair(a, b)
            w = joint._witnesses(a, b, abs_sum, abs_diff, lam)
            assert _max_abs(w[0] - w[1] - w[2] + w[3] - lam * (abs_sum - abs_diff) / 2.0) <= 4 * np.finfo(float).eps

            o1lam, o2lam = smear(o1, lam), smear(o2, lam)
            y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
            eye = np.eye(o1lam.dim)
            a, b = 2.0 * y1 - eye, 2.0 * y2 - eye
            g = joint._witnesses(a, b, *joint._abs_pair(a, b), 1.0)
            f = 0.25 * (g[0] - g[1] - g[2] + g[3]) + (y1 + y2) / 2.0 - eye / 4.0
            projected = np.array([f, y1 - f, y2 - f, eye - y1 - y2 + f])
            if np.linalg.eigvalsh(projected)[:, 0].min() < -PSD_TOL:
                continue
            psd_starts += 1
            rep = feasibility_oracle(o1lam, o2lam)
            assert (rep.feasible, rep.iterations) == ("yes", 0)
            assert _max_abs(np.array([e.matrix for e in rep.witness.effects]) - projected) <= 2.2e-16
        assert psd_starts >= 5

    def test_no_iterate_moves(self):
        # Near-sharp pairs past the gate, d = 2 to 6: the verdict, iteration
        # count and certificate bytes of each pair that makes more than one
        # projection are pinned, at d = 2 also its witness bytes and
        # min_eigenvalue; every other draw is decided at its start or at its
        # first projection.
        rng = np.random.default_rng(48)
        for index in range(80):
            d = int(rng.integers(2, 7))
            o1, o2 = (DichotomicObservable.from_yes_effect(_near_sharp_effect(rng, d)) for _ in range(2))
            lam = float(rng.uniform(0.8, 1.0))
            rep = feasibility_oracle(smear(o1, lam), smear(o2, lam))
            if index not in _PINNED_PATHS:
                assert rep.iterations <= 1
                continue
            row = (rep.feasible, rep.iterations, _sha256(rep.certificate))
            if d == 2:
                witness = None if rep.witness is None else [e.matrix for e in rep.witness.effects]
                row += (rep.min_eigenvalue.hex(), _sha256(witness))
            assert row == _PINNED_PATHS[index], index

    def test_a_no_closer_to_the_threshold_is_certified_within_the_budget(self):
        # At 1e-8 past the threshold, started from (I/4, I/4, I/4, I/4) with
        # the first test at iteration 5, these probes took 316 to 10,503
        # iterations, and the second ran the 20,000-iteration default budget
        # to "undetermined".  From the midpoint witness each is a "no".
        for o1lam, o2lam in _threshold_probes(1e-8):
            rep = feasibility_oracle(o1lam, o2lam)
            _assert_certifies_no(rep, o1lam, o2lam)
            _assert_certifies_no_exactly(rep.certificate, o1lam, o2lam)

    def test_agreement_sample(self):
        # Small version of the acceptance sweep: verdicts match the
        # closed form away from the criterion boundary.
        rng = np.random.default_rng(139)
        for _ in range(60):
            m = BlochVector(_random_unit(rng))
            n = BlochVector(_random_unit(rng))
            lam = float(rng.uniform(0.3, 0.95))
            cval = criterion_value(m, n, lam)
            if abs(cval - 2.0) < 0.02:
                continue
            closed = "yes" if cval <= 2.0 else "no"
            o1lam, o2lam = smear(m.observable(), lam), smear(n.observable(), lam)
            rep = feasibility_oracle(o1lam, o2lam)
            assert rep.feasible == closed
            if closed == "no":
                _assert_certifies_no(rep, o1lam, o2lam)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_bloch_pairs_outside_band(self, seed):
        rng = np.random.default_rng(seed)
        m, n = BlochVector(_random_unit(rng)), BlochVector(_random_unit(rng))
        lam = float(rng.uniform(0.3, 0.95))
        cval = criterion_value(m, n, lam)
        assume(abs(cval - 2.0) >= 0.02)
        o1lam, o2lam = smear(m.observable(), lam), smear(n.observable(), lam)
        rep = feasibility_oracle(o1lam, o2lam)
        assert rep.feasible == ("yes" if cval <= 2.0 else "no")
        if rep.feasible == "no":
            _assert_certifies_no(rep, o1lam, o2lam)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]))
    def test_projector_pairs_bracket_the_threshold(self, seed, d):
        rng = np.random.default_rng(seed)
        p, q = _random_projector(rng, d, d // 2), _random_projector(rng, d, d // 2)
        threshold = lambda_opt_search(p.observable(), q.observable())
        assume(1.03 * threshold <= 1.0)
        for lam, want in ((0.97 * threshold, "yes"), (1.03 * threshold, "no")):
            o1lam, o2lam = smear(p.observable(), lam), smear(q.observable(), lam)
            rep = feasibility_oracle(o1lam, o2lam)
            assert rep.feasible == want
            if want == "no":
                _assert_certifies_no(rep, o1lam, o2lam)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    def test_never_no_at_the_threshold(self, seed, d, bloch):
        # The certificate is a proof, so it must never verify where the
        # closed form builds a witness.
        rng = np.random.default_rng(seed)
        if bloch:
            a, b = BlochVector(_random_unit(rng)), BlochVector(_random_unit(rng))
        else:
            a = _random_projector(rng, d, int(rng.integers(0, d + 1)))
            b = _random_projector(rng, d, int(rng.integers(0, d + 1)))
        o1, o2 = a.observable(), b.observable()
        lam = lambda_opt_search(*((a, b) if bloch else (o1, o2)))
        rep = feasibility_oracle(smear(o1, lam), smear(o2, lam))
        assert rep.feasible != "no"

    def test_povm_pair_above_gate_is_oracle_territory(self):
        # Equal POVM pairs stay feasible all the way up: the oracle agrees
        # with the closed form, whose top is 2 |A| <= 2 for A = B.
        rng = np.random.default_rng(149)
        o = DichotomicObservable.from_yes_effect(_random_effect(rng, 2))
        rep = feasibility_oracle(smear(o, 0.95), smear(o, 0.95))
        assert rep.feasible == "yes"
        assert povm_joint_observable(o, o, 0.95).iterations == 0

    def test_qubit_yes_inside_the_boundary_takes_a_few_iterations(self):
        # Plain Dykstra took 50-66 iterations on these pairs at criterion 1.9.
        rng = np.random.default_rng(211)
        for _ in range(10):
            m, n = BlochVector(_random_unit(rng)), BlochVector(_random_unit(rng))
            lam = 1.9 / criterion_value(m, n, 1.0)
            o1lam, o2lam = smear(m.observable(), lam), smear(n.observable(), lam)
            rep = feasibility_oracle(o1lam, o2lam)
            _assert_witnesses_yes(rep, o1lam, o2lam)
            assert rep.iterations <= 5

    def test_near_sharp_povm_pair_is_decided(self):
        # The last of 31 seeded d = 3 pairs, smeared to lam = 0.95: plain
        # Dykstra ran the default budget of 20,000 iterations to "undetermined".
        rng = np.random.default_rng(5)
        for _ in range(31):
            e1, e2 = _near_sharp_effect(rng, 3), _near_sharp_effect(rng, 3)
        o1lam, o2lam = (smear(DichotomicObservable.from_yes_effect(e), 0.95) for e in (e1, e2))
        rep = feasibility_oracle(o1lam, o2lam)
        assert rep.feasible != "undetermined"
        _assert_verdict_checks(rep, o1lam, o2lam)

    def test_integer_budget_reported_as_int(self, monkeypatch):
        # A pair 1e-8 past its threshold, which one iteration leaves undecided:
        # the report carries the iterate gap and the affine iterate's spectrum.
        monkeypatch.setattr(joint, "MAX_ITER", 1)
        o1lam, o2lam = next(_threshold_probes(1e-8))
        rep = feasibility_oracle(o1lam, o2lam)
        assert rep.feasible == "undetermined" and rep.certificate is None
        assert type(rep.iterations) is int and rep.iterations == 1
        assert 0.0 < rep.marginal_residual and rep.min_eigenvalue < -PSD_TOL


def _unit_vectors():
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    return (
        st.tuples(coord, coord, coord)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


_PAIR_KINDS = {
    "bloch": lambda: Z,
    "vector": lambda: np.array([math.sin(1.0), 0.0, math.cos(1.0)]),
    "projector": lambda: _ray([1, 1]),
    "observable": lambda: DichotomicObservable.from_yes_effect(np.diag([0.3, 0.6])),
    "effect": lambda: Effect(np.diag([0.3, 0.6])),
    "matrix": lambda: np.diag([0.3, 0.6]),
}


def _oracle_verdict(pair, value) -> str:
    """The oracle's verdict on a pair at a lambda_opt_search value: the reference check."""
    obs = [x.observable() if isinstance(x, BlochVector) else x for x in pair]
    return feasibility_oracle(*(smear(o, value) for o in obs)).feasible


class TestLambdaOptSearch:
    def test_orthogonal_pair(self):
        value = lambda_opt_search(Z, X)
        assert value == pytest.approx(LAMBDA_OPT, abs=1e-15)
        assert _oracle_verdict((Z, X), value) in ("yes", "undetermined")

    def test_identical_pair(self):
        assert lambda_opt_search(Z, Z) == 1.0

    @settings(max_examples=60)
    @given(_unit_vectors(), _unit_vectors())
    # top = 2 + 1e-12 lies inside the gate's slack, so the value is 1, not 2 / top.
    @example(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 1e-12]))
    def test_bloch_pair_is_closed_form_boundary(self, m, n):
        value = lambda_opt_search(*(pair := (BlochVector(m), BlochVector(n))))
        top = np.linalg.norm(m + n) + np.linalg.norm(m - n)
        closed = 1.0 if top <= 2.0 + CRITERION_SLACK else 2.0 / top
        assert value == pytest.approx(closed, abs=1e-15)
        assert _oracle_verdict(pair, value) in ("yes", "undetermined")
        assert qubit_joint_observable(*pair, value).feasible == "yes"
        above = value * (1.0 + 1e-9)
        if value < 1.0 and above <= 1.0:
            assert qubit_joint_observable(*pair, above).feasible == "no"

    def test_projector_pair(self):
        value = lambda_opt_search(_ray([1, 0]).observable(), _ray([1, 1]).observable())
        assert value == pytest.approx(LAMBDA_OPT, abs=1e-12)

    def test_commuting_projector_pair_is_sharp(self):
        p = Projector.from_matrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        q = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
        assert lambda_opt_search(p.observable(), q.observable()) == 1.0

    def test_povm_pair_takes_lambda_opt(self, monkeypatch):
        # Its value is LAMBDA_OPT whatever top is, where the gate passes every
        # pair: neither the search nor a decision at that value runs the oracle.
        def refuse(*args, **kwargs):
            raise AssertionError("feasibility_oracle called")

        rng = np.random.default_rng(181)
        for d in (2, 3, 5):
            o1 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
            o2 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
            with monkeypatch.context() as patch:
                patch.setattr("unsharpjoint.joint.feasibility_oracle", refuse)
                value = lambda_opt_search(o1, o2)
                assert povm_joint_observable(o1, o2, value).feasible == "yes"
            assert value == LAMBDA_OPT
            assert _oracle_verdict((o1, o2), value) == "yes"

    @pytest.mark.parametrize("projector_first", [True, False])
    def test_mixed_pair_takes_lambda_opt(self, projector_first):
        # A sharp observable paired with a POVM is decided as a POVM pair.
        rng = np.random.default_rng(197)
        p = _random_projector(rng, 3, 1).observable()
        o = DichotomicObservable.from_yes_effect(_random_effect(rng, 3))
        pair = (p, o) if projector_first else (o, p)
        value = lambda_opt_search(*pair)
        assert value == LAMBDA_OPT
        assert _oracle_verdict(pair, value) == "yes"
        assert povm_joint_observable(*pair, value).feasible == "yes"

    @pytest.mark.parametrize("first,second", list(itertools.product(_PAIR_KINDS, repeat=2)))
    def test_branch_is_chosen_from_both_elements(self, first, second):
        # Once chosen by the first element alone: (Effect, obs) and
        # (Effect, Effect) died with a bare TypeError and (matrix, obs) with
        # "bloch-3-vector".  Then both were sniffed, and a raw array could
        # be read as a 3-vector or a matrix.  Now a pair is two BlochVectors
        # or two DichotomicObservables, and nothing else.  Equal kinds here
        # are equal elements.
        a, b = _PAIR_KINDS[first](), _PAIR_KINDS[second]()
        if first == second == "bloch":
            want = min(1.0, 2.0 / criterion_value(a, b, 1.0))
        elif first == second == "observable":
            want = LAMBDA_OPT
        else:
            with pytest.raises(ValidationError, match="pair-source"):
                lambda_opt_search(a, b)
            return
        value = lambda_opt_search(a, b)
        assert value == pytest.approx(want, abs=1e-15)
        assert _oracle_verdict((a, b), value) in ("yes", "undetermined")

    @pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], {"a": 1}], ids=["string", "ragged", "dict"])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_numeric_element_is_rejected(self, bad, first):
        o = _PAIR_KINDS["observable"]()
        with pytest.raises(ValidationError, match="pair-source"):
            lambda_opt_search(*((bad, o) if first else (o, bad)))

    def test_higher_dimensional_projector_pair(self):
        # The search lands on the worst block angle's exact boundary
        # 1 / (cos(theta/2) + sin(theta/2)).
        rng = np.random.default_rng(173)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        p = Projector(u[:, :2] @ u[:, :2].conj().T, rank=2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        q = Projector(u[:, :2] @ u[:, :2].conj().T, rank=2)
        expected = min(
            1.0 / (b.overlap + math.sqrt(1.0 - b.overlap**2))
            for b in two_projector_blocks(p, q).blocks
            if b.dim == 2
        )
        assert lambda_opt_search(p.observable(), q.observable()) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("element", [3, None, ([0, 0, 1],), ([0, 0, 1], [1, 0, 0], [0, 1, 0])],
                             ids=["int", "none", "1-tuple", "3-tuple"])
    def test_malformed_pair_source(self, element):
        # Each used to escape as a bare TypeError or ValueError as a pair source.
        for pair in ((element, Z), (Z, element)):
            with pytest.raises(ValidationError, match="pair-source"):
                lambda_opt_search(*pair)

    def test_worst_case(self):
        value = lambda_opt_search(*worst_case_pair(2026))
        assert value == pytest.approx(LAMBDA_OPT, abs=1e-3)
        assert value >= LAMBDA_OPT - 1e-3

    def test_worst_case_reaches_inverse_sqrt2(self):
        # worst_case_pair draws unit, orthogonal vectors, so the threshold is
        # 1/sqrt(2) to rounding.
        for seed in range(50):
            m, n = pair = worst_case_pair(seed)
            assert abs(m.v @ m.v - 1.0) <= 1e-15 and abs(n.v @ n.v - 1.0) <= 1e-15, seed
            assert abs(m.v @ n.v) <= 1e-15, seed
            value = lambda_opt_search(*pair)
            assert value == pytest.approx(2.0 / criterion_value(m, n, 1.0), abs=1e-15)
            assert abs(value - LAMBDA_OPT) <= 1e-15, seed
            assert _oracle_verdict(pair, value) != "no"

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", True])
    def test_worst_case_rejects_a_seed_outside_uint64(self, seed):
        # -1 used to raise numpy's bare ValueError.
        with pytest.raises(ValidationError, match="seed-uint64"):
            worst_case_pair(seed)

    def test_worst_case_takes_numpy_integers(self):
        for seed, same in ((np.uint64(2**64 - 1), 2**64 - 1), (np.int64(7), 7)):
            got, want = worst_case_pair(seed), worst_case_pair(same)
            assert [v.v.tobytes() for v in got] == [v.v.tobytes() for v in want]


def _random_projector(rng, d, rank):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(g)
    return Projector(u[:, :rank] @ u[:, :rank].conj().T, rank=rank)


def _near_aligned_pair(rng, d, rp, rq, angle):
    """Projectors of ranks rp, rq on C^d, the first range vector of the second
    tilted by angle from one of the first towards its kernel."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    first = math.cos(angle) * u[:, 0] + math.sin(angle) * u[:, rp]
    rest = rng.normal(size=(d, rq - 1)) + 1j * rng.normal(size=(d, rq - 1))
    w, _ = np.linalg.qr(np.column_stack([first, rest]))
    w[:, 0] = first
    return (Projector(u[:, :rp] @ u[:, :rp].conj().T, rank=rp),
            Projector(w @ w.conj().T, rank=rq))


class TestWitnessBuiltOnce:
    @pytest.mark.parametrize("path,dims", [("pvm", (4, 32)), ("povm", (2, 8))])
    def test_eigensolves_independent_of_block_count(self, path, dims, eigensolves):
        # Rank-d/2 projector pairs have d/2 two-dimensional blocks, and so,
        # generically, do the contrasts of d-dim POVM pairs; only the final
        # witness may cost eigensolves.
        rng = np.random.default_rng(191)
        if path == "pvm":
            decide = pvm_joint_observable
            pairs = [[_random_projector(rng, d, d // 2) for _ in range(2)] for d in dims]
        else:
            decide = povm_joint_observable
            pairs = [
                [DichotomicObservable.from_yes_effect(_random_effect(rng, d)) for _ in range(2)]
                for d in dims
            ]
        counts = []
        for a, b in pairs:
            del eigensolves[:]
            assert decide(a, b, LAMBDA_OPT).feasible == "yes"
            counts.append(len(eigensolves))
        assert counts[0] == counts[1]

    @staticmethod
    def _count_top_solves(monkeypatch):
        """A list that gets one entry for each eigh or eigvalsh of a single matrix,
        which only an operator pair's |A+B| + |A-B| takes, for its top and its Bell
        value (_abs_pair, a witness check and the Bell value's blocks solve stacks)."""
        solves = []

        def recording(real):
            def wrapper(a, *args, **kwargs):
                if np.ndim(a) == 2:
                    solves.append(np.shape(a))
                return real(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        return solves

    def test_a_no_past_the_gate_solves_top_once_and_builds_no_witness(self, monkeypatch):
        d, rng = 64, np.random.default_rng(75)
        p, q = _random_projector(rng, d, d // 2), _random_projector(rng, d, d // 2)
        solves, built = self._count_top_solves(monkeypatch), []
        real_witnesses = joint._witnesses
        monkeypatch.setattr(joint, "_witnesses", lambda *args: built.append(1) or real_witnesses(*args))
        rep = pvm_joint_observable(p, q, 0.75)
        assert rep.feasible == "no" and rep.min_eigenvalue < 0.0
        assert solves == [(d, d)]
        assert built == []

    @pytest.mark.parametrize("sharp", [True, False])
    def test_lambda_opt_search_solves_top_once_on_an_exact_pair(self, sharp, monkeypatch):
        # An exact pair reads top for its value and again in the gate of the
        # decision that checks it past 1/sqrt(2), one cached solve; any other
        # pair takes 1/sqrt(2), where the gate needs no top.
        rng = np.random.default_rng(76)
        if sharp:
            o1, o2 = (_random_projector(rng, 6, 3).observable() for _ in range(2))
        else:
            o1, o2 = (DichotomicObservable.from_yes_effect(_random_effect(rng, 6)) for _ in range(2))
        solves = self._count_top_solves(monkeypatch)
        value = lambda_opt_search(o1, o2)
        assert solves == ([(6, 6)] if sharp else [])
        assert value > LAMBDA_OPT if sharp else value == LAMBDA_OPT

    @pytest.mark.parametrize("lam", [0.3, LAMBDA_OPT, math.sqrt(0.5)])
    @pytest.mark.parametrize("path", ["povm", "sharp-povm", "pvm"])
    def test_a_pair_inside_busch_s_bound_solves_no_top(self, path, lam, monkeypatch):
        rng = np.random.default_rng(77)
        if path == "povm":
            pair = [DichotomicObservable.from_yes_effect(_random_effect(rng, 5)) for _ in range(2)]
        else:
            pair = [_random_projector(rng, 5, 2) for _ in range(2)]
            pair = [p.observable() for p in pair] if path == "sharp-povm" else pair
        decide = pvm_joint_observable if path == "pvm" else povm_joint_observable
        solves = self._count_top_solves(monkeypatch)
        assert decide(*pair, lam).feasible == "yes"
        assert solves == []

    def test_qubit_yes_makes_one_eigensolve(self, eigensolves):
        # The witness is checked once, as one stack, and check_joint reuses
        # its smallest eigenvalue; the smeared targets are built unchecked.
        rep = qubit_joint_observable(Z, X, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert len(eigensolves) <= 1
        check_joint(rep.witness, smear(Z.observable(), LAMBDA_OPT), smear(X.observable(), LAMBDA_OPT))
        assert len(eigensolves) <= 1

    @pytest.mark.parametrize("path", ["pvm", "povm", "oracle"])
    def test_min_eigenvalue_is_that_of_the_raw_witness(self, path):
        # eigvalsh reads the lower triangle of a raw witness matrix, which is
        # Hermitian only to rounding: the report keeps that value, from the
        # witness check's one raw spectrum, whose Weyl margin leaves the
        # hermitized spectrum to a fallback near the window's edges.
        rng = np.random.default_rng(31)
        for _ in range(8):
            if path == "pvm":
                o1, o2 = (_random_projector(rng, 6, 3) for _ in range(2))
                rep = pvm_joint_observable(o1, o2, LAMBDA_OPT)
                o1, o2 = o1.observable(), o2.observable()
            else:
                o1, o2 = (DichotomicObservable.from_yes_effect(_random_effect(rng, 3)) for _ in range(2))
                if path == "povm":
                    rep = povm_joint_observable(o1, o2, LAMBDA_OPT)
                else:
                    rep = feasibility_oracle(smear(o1, 0.5), smear(o2, 0.5))
            raw = min(float(np.linalg.eigvalsh(e.matrix)[0]) for e in rep.witness.effects)
            assert rep.min_eigenvalue == raw
            lam = 0.5 if path == "oracle" else LAMBDA_OPT
            assert check_joint(rep.witness, smear(o1, lam), smear(o2, lam)).min_eigenvalue == raw

    @pytest.mark.parametrize("case,verdict", [
        (0.97, "yes"), ("near-sharp", "yes"), (1.03, "no"), (1.0 + 1e-8, "no")])
    def test_oracle_solves_only_what_it_reads(self, case, verdict, monkeypatch):
        # One eigh of (2, d, d) for the start's |A+B| and |A-B| (_abs_pair) and
        # one eigvalsh of the start; then per projection one eigh of the (4, d, d)
        # input it projects and one eigvalsh of the affine point it gives; one
        # eigvalsh per certificate test, after that point's; nothing after the
        # verdict.  A "yes" is checked and any report read on those eigvalsh.
        if case == "near-sharp":  # past the gate, PSD only after projections
            rng = np.random.default_rng(20)
            o1lam, o2lam = (smear(DichotomicObservable.from_yes_effect(_near_sharp_effect(rng, 3)), 0.9)
                            for _ in range(2))
        else:
            n = BlochVector.normalized([math.sin(1.0), 0.3, math.cos(1.0)])
            lam = case * 2.0 / criterion_value(Z, n, 1.0)
            o1lam, o2lam = smear(Z.observable(), lam), smear(n.observable(), lam)
        calls = []

        def recording(name, real):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        monkeypatch.setattr(joint, "_farkas_certificate", recording("certificate", joint._farkas_certificate))
        rep = feasibility_oracle(o1lam, o2lam)
        assert rep.feasible == verdict
        d, k = o1lam.dim, rep.iterations
        assert (k == 0) == (case == 0.97)
        pair, stack = (2, d, d), (4, d, d)
        # The iteration of each certificate test: the projections made before it.
        tested = [calls[:i].count(("eigh", stack)) for i, call in enumerate(calls) if call[0] == "certificate"]
        expected = [("eigh", pair), ("eigvalsh", stack)]
        for it in range(1, k + 1):
            expected += [("eigh", stack), ("eigvalsh", stack)]
            if it in tested:
                expected += [("certificate", (4, d, d)), ("eigvalsh", stack)]
        assert calls == expected
        # At iteration 1, then at most every CERTIFICATE_EVERY, the last test at the "no".
        assert tested[:1] == ([1] if k else [])
        assert all(b - a >= CERTIFICATE_EVERY for a, b in zip(tested, tested[1:]))
        assert (tested[-1:] == [k]) == (verdict == "no")

    def test_derived_values_make_no_eigensolve(self, eigensolves):
        obs = Z.observable()
        smeared = smear(obs, 0.6)
        state = DensityMatrix.pure([1.0, 2j, -0.5, 0.25])
        chsh(state, smeared, smeared, X.observable(), X.observable())
        assert eigensolves == []

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
    def test_projector_pair_witness_at_threshold(self, seed, d, data):
        rng = np.random.default_rng(seed)
        p = _random_projector(rng, d, data.draw(st.integers(0, d)))
        q = _random_projector(rng, d, data.draw(st.integers(0, d)))
        rep = pvm_joint_observable(p, q, lambda_opt_search(p.observable(), q.observable()))
        assert rep.feasible == "yes"
        assert rep.min_eigenvalue >= -1e-11
        assert rep.marginal_residual <= 1e-9

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 16),
        st.floats(math.log(1e-12), math.log(math.pi / 2)),
        st.data(),
    )
    def test_near_aligned_pair_threshold(self, seed, d, log_angle, data):
        # One principal angle down to 1e-12: the operator formula needs no
        # block decomposition, so nearly aligned subspaces decide like any.
        rng = np.random.default_rng(seed)
        rp, rq = data.draw(st.integers(1, d - 1)), data.draw(st.integers(1, d))
        p, q = _near_aligned_pair(rng, d, rp, rq, math.exp(log_angle))
        lam = lambda_opt_search(p.observable(), q.observable())
        rep = pvm_joint_observable(p, q, lam)
        assert rep.feasible == "yes"
        assert rep.min_eigenvalue >= -1e-11
        assert rep.marginal_residual <= 1e-9
        above = lam * (1.0 + 1e-9)
        if above <= 1.0:
            assert pvm_joint_observable(p, q, above).feasible == "no"

    @settings(max_examples=60)
    @given(_unit_vectors(), _unit_vectors(), st.floats(0.0, 1.0))
    def test_operator_criterion_is_the_bloch_criterion(self, m, n, lam):
        m, n = BlochVector(m), BlochVector(n)
        assume(lam > 0.0 and abs(lam * criterion_value(m, n, 1.0) - 2.0) >= 1e-9)
        by_operator = pvm_joint_observable(_projector_of(m), _projector_of(n), lam)
        by_bloch = qubit_joint_observable(m, n, lam)
        assert by_operator.feasible == by_bloch.feasible
        if by_bloch.feasible == "no":
            assert abs(by_operator.min_eigenvalue - by_bloch.min_eigenvalue) <= 1e-15

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_povm_pair_witness_at_lambda_opt(self, seed, d):
        rng = np.random.default_rng(seed)
        o1 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
        o2 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
        rep = povm_joint_observable(o1, o2, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert rep.min_eigenvalue >= -1e-11
        assert rep.marginal_residual <= 1e-9


class TestReportInvariants:
    def test_joint_observable_normalization_enforced(self):
        quarter = Effect(identity(2) / 4.0)
        with pytest.raises(ValidationError):
            JointObservable(quarter, quarter, quarter, Effect(identity(2) / 2.0))


def _reference_oracle(o1lam, o2lam, max_iter):
    """feasibility_oracle without its Anderson step and warm start, written
    plainly: Dykstra's alternating projections from (I/4, I/4, I/4, I/4),
    with an eigh for each PSD projection, an eigvalsh of every affine
    iterate, a certificate test every CERTIFICATE_EVERY iterations, and the
    affine stack and certificate built afresh each time."""
    d = o1lam.dim
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix

    def affine_project(h):
        eye = np.eye(d, dtype=complex)
        f = 0.25 * (h[0] - h[1] - h[2] + h[3]) + 0.5 * (y1 + y2) - 0.25 * eye
        return np.stack([f, y1 - f, y2 - f, eye - y1 - y2 + f])

    def psd_project(h):
        h = (h + np.conj(np.transpose(h, (0, 2, 1)))) / 2.0
        eigs, vecs = np.linalg.eigh(h)
        eigs = np.maximum(eigs, 0.0)
        return (vecs * eigs[:, None, :]) @ np.conj(np.transpose(vecs, (0, 2, 1)))

    def farkas_certificate(x, y):
        h = y - x
        k = h[0] - h[1] - h[2] + h[3]
        h = h - np.stack([k, -k, -k, k]) / 4.0
        h = (h + np.conj(np.transpose(h, (0, 2, 1)))) / 2.0
        eye = np.eye(d, dtype=complex)
        h = h + max(0.0, -float(np.min(np.linalg.eigvalsh(h)))) * eye
        affine = np.stack([np.zeros_like(eye), y1, y2, eye - y1 - y2])
        pairing = float(np.sum(np.conj(h) * affine).real)
        if pairing >= -CERTIFICATE_MARGIN * d * float(np.linalg.norm(h)):
            return None
        return h

    x = affine_project(np.stack([np.eye(d, dtype=complex) / 4.0] * 4))
    correction = np.zeros_like(x)
    for it in range(1, max_iter + 1):
        y = psd_project(x + correction)
        correction = x + correction - y
        x = affine_project(y)
        min_eig = float(np.min(np.linalg.eigvalsh(x)))
        if min_eig >= -PSD_TOL:
            return _yes(x, 1e-9, o1lam, o2lam, it)
        if it % CERTIFICATE_EVERY == 0:
            certificate = farkas_certificate(x, y)
            if certificate is not None:
                return FeasibilityReport("no", None, float(np.max(np.abs(x - y))), min_eig, it, certificate)
    min_eig = float(np.min(np.linalg.eigvalsh(x)))
    return FeasibilityReport("undetermined", None, float(np.max(np.abs(x - psd_project(x)))), min_eig, max_iter)


def _assert_witnesses_yes(rep, o1lam, o2lam):
    """Re-verify an oracle "yes" in plain numpy: four Hermitian effects, each
    PSD to -1e-9, whose rows and columns sum to the targets' yes effects and
    which sum to the identity."""
    assert rep.feasible == "yes"
    g = [np.asarray(e.matrix) for e in rep.witness.effects]
    assert all(not gjk.flags.writeable for gjk in g)
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
    for gjk in g:
        assert np.max(np.abs(gjk - gjk.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh((gjk + gjk.conj().T) / 2.0)[0] >= -1e-9
    assert np.max(np.abs(g[0] + g[1] - y1)) <= 1e-9
    assert np.max(np.abs(g[0] + g[2] - y2)) <= 1e-9
    assert np.max(np.abs(sum(g) - np.eye(len(y1)))) <= 1e-9


def _assert_verdict_checks(rep, o1lam, o2lam):
    if rep.feasible == "yes":
        _assert_witnesses_yes(rep, o1lam, o2lam)
    elif rep.feasible == "no":
        _assert_certifies_no(rep, o1lam, o2lam)


class TestOracleAgainstReferenceLoop:
    @pytest.mark.parametrize("kind", ["qubit", "projector", "povm", "povm-past-gate"])
    def test_decides_wherever_the_plain_loop_does(self, kind, monkeypatch):
        # The Anderson step and the warm start change the iterates, so reports
        # are not the plain loop's bytes. On the same draws the verdicts never
        # conflict, every verdict of the plain loop within the budget is also
        # reached, and every witness and certificate passes its own numpy check.
        # POVM draws near 1/sqrt(2) are all "yes" of the midpoint witness; the
        # near-sharp pairs past the gate check "no" against the plain loop.
        rng = np.random.default_rng(["qubit", "projector", "povm", "povm-past-gate"].index(kind) + 409)
        verdicts, decided, reference_decided = set(), 0, 0
        for _ in range(60):
            if kind == "qubit":
                m, n = BlochVector(_random_unit(rng)), BlochVector(_random_unit(rng))
                threshold = min(1.0, 2.0 / criterion_value(m, n, 1.0))
                o1, o2 = m.observable(), n.observable()
            else:
                d = int(rng.choice([3, 4, 8]))
                if kind == "projector":
                    p, q = (_random_projector(rng, d, int(rng.integers(1, d))) for _ in range(2))
                    threshold = min(1.0, 2.0 / _observable_pair(p.observable(), q.observable()).top())
                    o1, o2 = p.observable(), q.observable()
                elif kind == "povm":
                    o1, o2 = (DichotomicObservable.from_yes_effect(_random_effect(rng, d)) for _ in range(2))
                    threshold = LAMBDA_OPT
                else:
                    o1, o2 = (DichotomicObservable.from_yes_effect(_near_sharp_effect(rng, d)) for _ in range(2))
            if kind == "povm-past-gate":
                lam = float(rng.uniform(0.9, 1.0))
            else:
                lam = min(1.0, threshold * float(rng.uniform(0.97, 1.03)))
            o1lam, o2lam = smear(o1, lam), smear(o2, lam)
            max_iter = int(rng.integers(1, 61))
            rng.uniform(-12, -2)  # keeps every later draw of this seed in place
            monkeypatch.setattr(joint, "MAX_ITER", max_iter)
            rep = feasibility_oracle(o1lam, o2lam)
            ref = _reference_oracle(o1lam, o2lam, max_iter)
            assert {rep.feasible, ref.feasible} != {"yes", "no"}
            if ref.feasible != "undetermined":
                assert rep.feasible == ref.feasible
            _assert_verdict_checks(rep, o1lam, o2lam)
            verdicts.add(rep.feasible)
            decided += rep.feasible != "undetermined"
            reference_decided += ref.feasible != "undetermined"
        assert (verdicts == {"yes"}) if kind == "povm" else (len(verdicts) >= 2)
        assert decided > reference_decided


def _report_bytes(rep) -> bytes:
    return json.dumps(feasibility_to_json(rep), sort_keys=True).encode()


def _abs(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.abs(w)) @ v.conj().T


class TestOneDecision:
    @settings(max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.booleans(),
        st.booleans(),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats(LAMBDA_OPT, 1.0),
            st.sampled_from([LAMBDA_OPT, 1.0]),
        ),
    )
    # Past the gate, a non-sharp pair whose oracle start is PSD by 7.4e-3.
    @example(26, 2, False, False, 0.9)
    def test_povm_joint_observable_decides_every_pair(self, seed, d, sharp1, sharp2, lam):
        # Projector, POVM and mixed pairs: a sharp pair is the projectors'
        # report byte for byte; any other pair is a closed-form "yes" exactly
        # where lam <= 1/sqrt(2) or lam * top <= 2 + slack, past that a Bell
        # "no" exactly where lam * beta, less what effects outside [0, I] add,
        # passes 2 + slack, and an oracle verdict elsewhere, at iteration 0
        # exactly where the oracle's start, the midpoint witness at lam, is
        # PSD to -PSD_TOL.  Every verdict passes its own numpy check, a Bell
        # "no" a rebuilt CHSH value above 2.
        rng = np.random.default_rng(seed)
        elements = [
            _random_projector(rng, d, int(rng.integers(0, d + 1))).matrix if sharp
            else _near_sharp_effect(rng, d)
            for sharp in (sharp1, sharp2)
        ]
        o1, o2 = (DichotomicObservable.from_yes_effect(m) for m in elements)
        rep = povm_joint_observable(o1, o2, lam)
        if sharp1 and sharp2:
            p1, p2 = (Projector.from_matrix(m) for m in elements)
            assert _report_bytes(rep) == _report_bytes(pvm_joint_observable(p1, p2, lam))
        else:
            a, b = (2.0 * m - np.eye(d) for m in elements)
            w, v = np.linalg.eigh(_abs(a + b) + _abs(a - b))
            closed = lam <= LAMBDA_OPT or lam * w[-1] <= 2.0 + CRITERION_SLACK
            # beta and radius in numpy, on the eigenvectors q within CLUSTER_TOL of the top.
            q = v[:, w >= w[-1] - CLUSTER_TOL]
            e = [np.abs(np.linalg.eigvalsh(q.conj().T @ h @ q)) for h in (a + b, a - b, a, b)]
            beta, radius = (e[0].sum() + e[1].sum()) / q.shape[1], max(e[2].max(), e[3].max())
            bell = lam * beta - 4.0 * max(0.0, lam * radius - 1.0) > 2.0 + CRITERION_SLACK
            # The midpoint witness of the smeared contrasts lam A, lam B, raw.
            t = lam * (_abs(a + b) - _abs(a - b)) / 2.0
            g = np.stack([np.eye(d) + lam * (j * a + k * b) + j * k * t for j in (1, -1) for k in (1, -1)])
            start = np.linalg.eigvalsh(g / 4.0)[:, 0].min() >= -PSD_TOL
            assert (rep.iterations == 0) == (closed or bell or start)
            assert rep.feasible == "yes" or not closed
        o1lam, o2lam = smear(o1, lam), smear(o2, lam)
        if rep.feasible == "yes":
            _assert_witnesses_yes(rep, o1lam, o2lam)
        elif rep.feasible == "no" and rep.iterations > 0:
            _assert_certifies_no(rep, o1lam, o2lam)
        elif rep.feasible == "no":
            assert _rebuilt_chsh(o1, o2, lam) > 2.0


    @pytest.mark.parametrize("decide, invariant", [
        (qubit_joint_observable, "bloch-vector"),
        (criterion_value, "bloch-vector"),
        (pvm_joint_observable, "projector"),
        (povm_joint_observable, "dichotomic-observable"),
    ], ids=["qubit", "criterion", "pvm", "povm"])
    def test_every_argument_wrong_names_the_first(self, decide, invariant):
        # Each builds its pair before it checks lam; pvm and criterion_value
        # used to check lam first and name it.
        with pytest.raises(ValidationError, match=rf"^{invariant}: got str$"):
            decide("x", "y", 2.0)


PAULI = (PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z)


class TestQubitPathBitIdentity:
    """The qubit path builds each value once, with the bits of the plain forms."""

    @staticmethod
    def _vectors():
        rng = np.random.default_rng(2401)
        seeded = [v / np.linalg.norm(v) for v in rng.normal(size=(300, 3))]
        axes = []
        for axis, sign in itertools.product(range(3), (1.0, -1.0)):
            for zeros in itertools.product((0.0, -0.0), repeat=2):
                v = list(zeros)
                v.insert(axis, sign)
                axes.append(np.array(v))
        return seeded + axes + [np.array([5e-324, -0.0, 1.0]), np.array([0.6, -0.0, -0.8])]

    def test_direct_projector_is_the_pauli_sum(self):
        for b in map(BlochVector, self._vectors()):
            v, obs = b.v, b.observable()  # the stored v / |v|
            got = obs.yes_effect.matrix
            want = 0.5 * (identity(2) + sum(c * s for c, s in zip(v, PAULI)))
            assert np.array_equal(got, want), v
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float))), v
            assert obs.no_effect.matrix.tobytes() == (identity(2) - want).tobytes(), v

    def test_bloch_norms_are_linalg_norm(self):
        vs = [BlochVector(v) for v in self._vectors()]
        for m, n in zip(vs, vs[1:] + vs[:1]):
            pair = _bloch_pair(m, n)
            s, d = (float(np.linalg.norm(v)) for v in (m.v + n.v, m.v - n.v))
            _, _, abs_sum, abs_diff, _, _ = pair.parts()
            assert np.array_equal(abs_sum, s * np.eye(2)) and np.array_equal(abs_diff, d * np.eye(2))
            assert pair.top().hex() == (s + d).hex()

    def test_qubit_path_values_refuse_a_write(self):
        # Every value built unchecked on the qubit path is read-only: the
        # observable's effects, the smeared effects and the witness effects.
        m = BlochVector([0.6, 0.0, 0.8])
        rep = qubit_joint_observable(m, X, 0.6)
        values = [m.observable(), smear(m.observable(), 0.6)]
        effects = [e for o in values for e in (o.yes_effect, o.no_effect)] + list(rep.witness.effects)
        assert len(effects) == 8
        for e in effects:
            with pytest.raises(ValueError, match="read-only"):
                e.matrix[0, 0] = 0.5

    def test_frozen_values_keep_an_instance_dict(self):
        # _frozen sets a value's fields through its __dict__, which __slots__ would remove.
        for cls in (Effect, DichotomicObservable, Projector, DensityMatrix, JointObservable):
            assert all("__slots__" not in vars(klass) for klass in cls.__mro__[:-1]), cls

    def test_observable_is_built_once(self):
        b = BlochVector([0.6, 0.0, 0.8])
        assert b.observable() is b.observable()
        other = BlochVector([0.6, 0.0, 0.8]).observable()
        assert other is not b.observable()
        assert other.yes_effect.matrix.tobytes() == b.observable().yes_effect.matrix.tobytes()

    def test_stacked_residuals_are_the_per_term_values(self):
        rng = np.random.default_rng(2402)
        for lam in (0.3, 0.6, LAMBDA_OPT):
            m, n = BlochVector.normalized(rng.normal(size=3)), BlochVector.normalized(rng.normal(size=3))
            rep = qubit_joint_observable(m, n, lam)
            # Moves the column marginals by the bump, the normalization by 5e-10.
            bump = 1e-4 * rng.normal(size=(2, 2))
            bump = bump + bump.T
            g = [e.matrix for e in rep.witness.effects]
            witness = JointObservable(Effect(g[0] + bump), Effect(g[1] - bump), Effect(g[2]),
                                      Effect(g[3] + 5e-10 * identity(2)))
            o1lam, o2lam = smear(m.observable(), lam), smear(n.observable(), lam)
            gpp, gpm, gmp, gmm = (e.matrix for e in witness.effects)
            res = check_joint(witness, o1lam, o2lam)
            assert res.normalization == _max_abs(gpp + gpm + gmp + gmm - identity(2)) > 0.0
            assert res.marginal_first == max(_max_abs(gpp + gpm - o1lam.yes_effect.matrix),
                                             _max_abs(gmp + gmm - o1lam.no_effect.matrix))
            assert res.marginal_second == max(_max_abs(gpp + gmp - o2lam.yes_effect.matrix),
                                              _max_abs(gpm + gmm - o2lam.no_effect.matrix))

    def test_witness_off_normalization_is_refused(self):
        # Four valid effects I/2 sum to 2 I: the one normalization check of _yes refuses them.
        o1lam, o2lam = smear(Z.observable(), 0.5), smear(X.observable(), 0.5)
        with pytest.raises(ValidationError, match="joint-normalization") as exc:
            _yes(np.stack([identity(2) / 2.0] * 4), PSD_TOL, o1lam, o2lam, 0)
        assert exc.value.residual == 1.0


class TestInPlaceBitIdentity:
    """The witness stack and check_joint's residuals, filled in place, carry the
    bits of the formulas written out term by term."""

    @staticmethod
    def _inputs(rng, d):
        """Hermitian A, B with some A == B entries (and signed zeros among them),
        and |A+B|, |A-B| as _abs_pair builds them."""
        a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
        a, b = (m + m.conj().T for m in (a, b))
        same = rng.random((d, d)) < 0.4
        same = same | same.T
        b[same] = a[same]
        a[0, 0] = b[0, 0] = complex(-0.0, 0.0)
        if d > 1:
            a[0, 1], b[0, 1] = complex(0.0, -0.0), complex(-0.0, 0.0)
            a[1, 0], b[1, 0] = a[0, 1].conjugate(), b[0, 1].conjugate()
        return (a, b, *joint._abs_pair(a, b))

    @staticmethod
    def _formula(a, b, abs_sum, abs_diff, lam):
        """G_jk = (I + lam (j A + k B) + jk lam (|A+B| - |A-B|) / 2) / 4, one (j, k) at a time."""
        eye = np.eye(len(a), dtype=complex)
        return np.stack([(eye + lam * (j * a + k * b) + j * k * (lam * (abs_sum - abs_diff) / 2.0)) / 4.0
                         for j, k in ((1, 1), (1, -1), (-1, 1), (-1, -1))])

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_witnesses_are_the_formula_bit_for_bit(self, d):
        rng = np.random.default_rng(3500 + d)
        lams = np.array([0.3, LAMBDA_OPT, math.sqrt(0.5), 0.9, 1.0])
        for _ in range(20):
            a, b, abs_sum, abs_diff = self._inputs(rng, d)
            assert np.signbit((a - b).view(float)).any() or d == 1
            for lam in lams:
                got = joint._witnesses(a, b, abs_sum, abs_diff, float(lam))
                want = self._formula(a, b, abs_sum, abs_diff, float(lam))
                assert got.shape == (4, d, d) and got.tobytes() == want.tobytes()
            got = joint._witnesses(a, b, abs_sum, abs_diff, lams[:, None, None, None])
            want = np.stack([self._formula(a, b, abs_sum, abs_diff, lam) for lam in lams])
            assert got.shape == (len(lams), 4, d, d) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_check_joint_residuals_are_the_per_term_values(self, d):
        rng = np.random.default_rng(3600 + d)
        for lam in (0.4, 0.6):
            o1, o2 = (DichotomicObservable.from_yes_effect(_random_effect(rng, d)) for _ in range(2))
            o1lam, o2lam = smear(o1, lam), smear(o2, lam)
            exact = povm_joint_observable(o1, o2, lam).witness
            g = [e.matrix for e in exact.effects]
            # Moves the row marginals by b1, the column marginals by b2 and the
            # normalization by 5e-10; every G_jk stays PSD, as lam * top < 2.
            b1, b2 = (1e-4 * (m + m.T) for m in rng.normal(size=(2, d, d)))
            moved = JointObservable(Effect(g[0] + b1 + b2), Effect(g[1] - b2), Effect(g[2] - b1),
                                    Effect(g[3] + 5e-10 * np.eye(d)))
            for witness in (exact, moved):
                gpp, gpm, gmp, gmm = (e.matrix for e in witness.effects)
                eye = np.eye(d, dtype=complex)
                res = check_joint(witness, o1lam, o2lam)
                assert res.normalization == float(np.max(np.abs(gpp + gpm + gmp + gmm - eye)))
                assert res.marginal_first == max(float(np.max(np.abs(gpp + gpm - o1lam.yes_effect.matrix))),
                                                 float(np.max(np.abs(gmp + gmm - o1lam.no_effect.matrix))))
                assert res.marginal_second == max(float(np.max(np.abs(gpp + gmp - o2lam.yes_effect.matrix))),
                                                  float(np.max(np.abs(gpm + gmm - o2lam.no_effect.matrix))))
            assert res.marginal_max > 1e-6


def _complementary_pair(rng, d, excess):
    """Projectors of rank d/2 on C^d, every block at 45 degrees, their range
    eigenvalue 1 + excess: inside the idempotency window, so |A| = 1 + 2 excess."""
    p = np.kron(np.diag([1.0 + excess, 0.0]), np.eye(d // 2))
    h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.eye(d // 2))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return tuple(Projector.from_matrix(u @ m @ u.conj().T) for m in (p, h @ p @ h))


class TestGateAtLambdaOpt:
    # Inputs at the edge of their windows have top just above 2 sqrt(2), so
    # lam * top passes 2 + CRITERION_SLACK at LAMBDA_OPT; the witness is still
    # PSD to -PSD_TOL / 2 there, and every path says "yes".

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_edge_of_window_projector_pairs(self, d):
        rng = np.random.default_rng(d + 2300)
        for excess in rng.uniform(0.1e-10, 0.95e-10, size=6):
            p, q = _complementary_pair(rng, d, excess)
            for rep in (pvm_joint_observable(p, q, LAMBDA_OPT),
                        povm_joint_observable(p.observable(), q.observable(), LAMBDA_OPT)):
                assert rep.feasible == "yes" and rep.iterations == 0
                assert rep.min_eigenvalue >= -PSD_TOL
                _assert_witnesses_yes(rep, smear(p.observable(), LAMBDA_OPT), smear(q.observable(), LAMBDA_OPT))
            assert pvm_joint_observable(p, q, LAMBDA_OPT + 1e-3).feasible == "no"

    def test_edge_of_window_bloch_pairs(self):
        rng = np.random.default_rng(2301)
        for excess in rng.uniform(0.5e-12, 0.99e-12, size=20):
            u, w = _random_unit(rng), _random_unit(rng)
            w = w - (w @ u) * u
            m, n = BlochVector((1.0 + excess) * u), BlochVector((1.0 + excess) * w / np.linalg.norm(w))
            rep = qubit_joint_observable(m, n, LAMBDA_OPT)
            assert rep.feasible == "yes"
            assert rep.min_eigenvalue >= -PSD_TOL
            _assert_witnesses_yes(rep, smear(m.observable(), LAMBDA_OPT), smear(n.observable(), LAMBDA_OPT))
            assert qubit_verdicts(m, n, [0.5, LAMBDA_OPT, LAMBDA_OPT + 1e-3]) == ["yes", "yes", "no"]

    def test_every_path_says_yes_at_the_float_nearest_to_busch_bound(self):
        # math.sqrt(0.5) is 1/sqrt(2) rounded to nearest, one ulp above LAMBDA_OPT;
        # the gate's 1/sqrt(2) escape covers it on every path.
        lam = math.sqrt(0.5)
        assert lam == np.nextafter(LAMBDA_OPT, 1.0)
        rng = np.random.default_rng(2403)
        for d in (2, 4):
            p, q = _complementary_pair(rng, d, 0.9e-10)
            for rep in (pvm_joint_observable(p, q, lam),
                        povm_joint_observable(p.observable(), q.observable(), lam)):
                assert (rep.feasible, rep.iterations) == ("yes", 0)
                _assert_witnesses_yes(rep, smear(p.observable(), lam), smear(q.observable(), lam))
        m, n = BlochVector([0.0, 0.0, 1.0 + 0.9e-12]), BlochVector([1.0 + 0.9e-12, 0.0, 0.0])
        rep = qubit_joint_observable(m, n, lam)
        assert rep.feasible == "yes"
        _assert_witnesses_yes(rep, smear(m.observable(), lam), smear(n.observable(), lam))
        assert qubit_verdicts(m, n, [lam]) == ["yes"]
        # A pair of effects at the ends of the window, not sharp: no oracle at lam.
        e = np.diag([1.0 + 0.9e-9, -0.9e-9]).astype(complex)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        o1, o2 = (DichotomicObservable.from_yes_effect(x) for x in (e, h @ e @ h))
        rep = povm_joint_observable(o1, o2, lam)
        assert (rep.feasible, rep.iterations) == ("yes", 0)
        _assert_witnesses_yes(rep, smear(o1, lam), smear(o2, lam))

    def test_lambda_opt_search_never_below_lambda_opt(self):
        # At the edge of the windows 2 / top falls just below LAMBDA_OPT, where
        # the gate already says "yes"; the search reports LAMBDA_OPT there.
        p, q = _complementary_pair(np.random.default_rng(2404), 2, 0.9e-10)
        m, n = BlochVector([0.0, 0.0, 1.0 + 0.9e-12]), BlochVector([1.0 + 0.9e-12, 0.0, 0.0])
        for pair in ((p.observable(), q.observable()), (m, n)):
            value = lambda_opt_search(*pair)
            assert (value, _oracle_verdict(pair, value)) == (LAMBDA_OPT, "yes")
            obs = [x.observable() if isinstance(x, BlochVector) else x for x in pair]
            assert povm_joint_observable(*obs, value).feasible == "yes"
        # An orthogonal pair of unit vectors whose 2 / top rounds to one ulp below LAMBDA_OPT.
        assert lambda_opt_search(*worst_case_pair(81)) == LAMBDA_OPT == 0.7071067811865475

    @pytest.mark.parametrize("n", [[1e-13, 0.0, 1.0], [9e-13, 0.0, 1.0], [1.0, 2.0, 0.5], [1.0, 0.0, 0.0]])
    def test_lambda_opt_search_same_for_bloch_and_sharp_pairs(self, n):
        # Near m = z, top is about 2 + |m - n|, inside the gate slack: the
        # gate passes lam = 1 for both forms of the pair.
        m, n = BlochVector([0.0, 0.0, 1.0]), BlochVector.normalized(n)
        bloch = lambda_opt_search(m, n)
        assert lambda_opt_search(m.observable(), n.observable()) == pytest.approx(bloch, abs=1e-15)
        assert (bloch == 1.0) == (criterion_value(m, n, 1.0) <= 2.0 + CRITERION_SLACK)


# Two yes-effects with eigenvalues 1 and 1e-10, the second along (0.8, 0.6):
# projectors to Projector's idempotency window, but not sharp.  At this lam,
# lam * top - 2 = 6e-11 puts the pair past the gate, yet a 40-digit barrier
# solve puts its threshold at 0.71428571435714286, above lam.
_NEAR_PROJECTORS = (
    np.array([[1.0, 0.0], [0.0, 1e-10]], dtype=complex),
    np.array([[0.6400000000360001, 0.479999999952], [0.479999999952, 0.360000000064]], dtype=complex),
)
_NEAR_PROJECTOR_LAM = 0.7142857143275511


class TestNearProjectorPair:
    def test_the_oracle_finds_a_joint_observable(self):
        o1lam, o2lam = (smear(DichotomicObservable.from_yes_effect(m), _NEAR_PROJECTOR_LAM)
                        for m in _NEAR_PROJECTORS)
        _assert_witnesses_yes(feasibility_oracle(o1lam, o2lam), o1lam, o2lam)

    def test_no_closed_form_path_says_no(self):
        o1, o2 = (DichotomicObservable.from_yes_effect(m) for m in _NEAR_PROJECTORS)
        p1, p2 = (Projector.from_matrix(m) for m in _NEAR_PROJECTORS)
        verdicts = {povm_joint_observable(o1, o2, _NEAR_PROJECTOR_LAM).feasible,
                    pvm_joint_observable(p1, p2, _NEAR_PROJECTOR_LAM).feasible}
        assert "no" not in verdicts


def _rebuilt_chsh(o1, o2, lam) -> float:
    """The CHSH value of a Bell "no"'s experiment, rebuilt in plain numpy and run
    through smeared_chsh on the full d^2-dimensional state: the maximally
    entangled state sum_i q_i (x) e_i / sqrt(k) on the span of the k eigenvectors
    q_i of |A+B| + |A-B| within CLUSTER_TOL of its top, Alice's pair smeared by
    lam, and Bob measuring sign(Q^H (A +- B) Q)^T on e_1..e_k (and +1 past them)."""
    a, b = (o.yes_effect.matrix - o.no_effect.matrix for o in (o1, o2))

    def absolute(m):
        w, v = np.linalg.eigh(m)
        return (v * np.abs(w)) @ v.conj().T

    w, v = np.linalg.eigh(absolute(a + b) + absolute(a - b))
    q = v[:, w >= w[-1] - CLUSTER_TOL]
    d, k = q.shape
    psi = sum(np.kron(q[:, i], np.eye(d)[i]) for i in range(k)) / math.sqrt(k)
    bob = []
    for m in (a + b, a - b):
        w, v = np.linalg.eigh(q.conj().T @ m @ q)
        yes = np.eye(d, dtype=complex)
        yes[:k, :k] = (np.eye(k) + ((v * np.where(w >= 0.0, 1.0, -1.0)) @ v.conj().T).T) / 2.0
        bob.append(DichotomicObservable.from_yes_effect(yes))
    return smeared_chsh(DensityMatrix.pure(psi), o1, o2, *bob, lam).value


def _degenerate_sharp_pair(rng, family):
    """Projectors whose top eigenspace of |A+B| + |A-B| holds two or more whole
    blocks: P (x) I_2, a direct sum of blocks at theta and pi/2 - theta (both
    at top 2 (cos theta + sin theta)), or a pair summed with itself."""
    if family == "theta":
        theta = float(rng.uniform(0.1, math.pi / 4 - 0.05))
        rays = [np.array([math.cos(t), math.sin(t)]) for t in (theta, math.pi / 2 - theta)]
        p, q = np.diag([1.0, 0.0, 1.0, 0.0]), _direct_sum(*(np.outer(r, r) for r in rays))
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return tuple(Projector.from_matrix(u @ m @ u.conj().T) for m in (p, q))
    d = int(rng.integers(2, 5))
    p, q = (_random_projector(rng, d, int(rng.integers(1, d))).matrix for _ in range(2))
    if family == "kron":
        return Projector.from_matrix(np.kron(p, np.eye(2))), Projector.from_matrix(np.kron(q, np.eye(2)))
    return Projector.from_matrix(_direct_sum(p, p)), Projector.from_matrix(_direct_sum(q, q))


class TestBellNo:
    @seed(2009)
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(1e-12, 1e-10), st.floats(1e-12, 1e-10),
           st.floats(1e-12, 1e-9))
    def test_a_no_past_the_gate_rests_on_a_chsh_violation(self, rng_seed, d, eps1, eps2, past):
        # Near-projectors (1 - eps) P + eps I pass Projector's idempotency window
        # but are not sharp; just past the gate, a "no" must come with an
        # experiment whose CHSH value passes 2, and a "yes" with its witness.
        rng = np.random.default_rng(rng_seed)
        e1, e2 = ((1.0 - eps) * _random_projector(rng, d, int(rng.integers(1, d))).matrix + eps * np.eye(d)
                  for eps in (eps1, eps2))
        o1, o2 = (DichotomicObservable.from_yes_effect(e) for e in (e1, e2))
        lam = (2.0 + CRITERION_SLACK) / _observable_pair(o1, o2).top() + past
        assume(lam <= 1.0)
        p1, p2 = (Projector.from_matrix(e) for e in (e1, e2))
        for rep in (povm_joint_observable(o1, o2, lam), pvm_joint_observable(p1, p2, lam)):
            if rep.feasible == "no":
                assert _rebuilt_chsh(o1, o2, lam) > 2.0
            else:
                _assert_witnesses_yes(rep, smear(o1, lam), smear(o2, lam))

    @pytest.mark.parametrize("family", ["kron", "theta", "self"])
    def test_a_degenerate_sharp_top_gets_the_closed_form_no(self, family):
        # Every block in the top eigenspace reaches top, so beta = top; a start
        # from span(x, Ax, Bx) of one top vector x would miss whole blocks.
        rng = np.random.default_rng(["kron", "theta", "self"].index(family) + 2009)
        for _ in range(10):
            p, q = _degenerate_sharp_pair(rng, family)
            top = _observable_pair(p.observable(), q.observable()).top()
            lam = min(1.0, 2.0 / top * float(rng.uniform(1.001, 1.05)))
            assert lam * top > 2.0 + CRITERION_SLACK
            # The top of the contrasts 2P - I, 2Q - I, as the projector builder read it before.
            eye = np.eye(p.dim)
            abs_sum, abs_diff = joint._abs_pair(2.0 * p.matrix - eye, 2.0 * q.matrix - eye)
            sharp_top = float(np.linalg.eigvalsh(abs_sum + abs_diff)[-1])
            o1, o2 = p.observable(), q.observable()
            for rep in (pvm_joint_observable(p, q, lam), povm_joint_observable(o1, o2, lam)):
                assert (rep.feasible, rep.witness, rep.marginal_residual, rep.iterations, rep.certificate) == (
                    "no", None, 0.0, 0, None)
                assert rep.min_eigenvalue == (2.0 - lam * top) / 8.0
                assert rep.min_eigenvalue == pytest.approx((2.0 - lam * sharp_top) / 8.0, abs=1e-15)
            assert _rebuilt_chsh(o1, o2, lam) == pytest.approx(lam * top, abs=1e-12)


    @pytest.mark.parametrize("yes2", [None, (1.0, -5e-10)])
    def test_effects_outside_the_unit_interval_get_no_bell_no(self, yes2):
        # Effects inside the window [-PSD_TOL, 1 + PSD_TOL] but outside [0, I] at
        # lam = 1: lam * beta - 2 = 2e-9 comes from the window alone, and the
        # observable paired with itself (or a commuting pair) is jointly measurable.
        o1 = DichotomicObservable.from_yes_effect(np.diag([1.0 + 5e-10, -5e-10]))
        o2 = o1 if yes2 is None else DichotomicObservable.from_yes_effect(np.diag(yes2))
        beta, radius = _observable_pair(o1, o2).bell()
        assert (beta, radius) == pytest.approx((2.0 + 2e-9, 1.0 + 1e-9), abs=1e-15)
        # The oracle's start is PSD to -PSD_TOL: a "yes" at iteration 0.
        rep = povm_joint_observable(o1, o2, 1.0)
        assert (rep.feasible, rep.iterations) == ("yes", 0)
        _assert_witnesses_yes(rep, smear(o1, 1.0), smear(o2, 1.0))

    def test_a_sharp_pair_whose_top_blocks_differ_goes_to_the_oracle_in_the_band(self):
        # Two blocks whose values 2 (cos t + sin t) lie 5e-11 apart: both are in the
        # top cluster, so beta is their mean, top - beta = 2.5e-11.  Just past the
        # gate, lam * top - 2 = 2 CRITERION_SLACK < lam (top - beta): no Bell "no",
        # and the oracle's start, at most (2 - lam * top) / 8 below 0, says "yes"
        # at iteration 0.
        t = 0.6
        dt = 5e-11 / (2.0 * (math.cos(t) - math.sin(t)))
        rays = [np.array([math.cos(x), math.sin(x)]) for x in (t, t + dt)]
        p = Projector.from_matrix(np.diag([1.0, 0.0, 1.0, 0.0]))
        q = Projector.from_matrix(_direct_sum(*(np.outer(r, r) for r in rays)))
        pair = _observable_pair(p.observable(), q.observable())
        top, (beta, _) = pair.top(), pair.bell()
        assert top - beta == pytest.approx(2.5e-11, rel=1e-3)
        lam = (2.0 + 2.0 * CRITERION_SLACK) / top
        for rep in (pvm_joint_observable(p, q, lam), povm_joint_observable(p.observable(), q.observable(), lam)):
            assert (rep.feasible, rep.iterations) == ("yes", 0)
            assert rep.min_eigenvalue == pytest.approx(-CRITERION_SLACK / 4.0, rel=1e-3)
            _assert_witnesses_yes(rep, smear(p.observable(), lam), smear(q.observable(), lam))


class TestLambdaOneEdge:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
    def test_the_first_near_sharp_draw_is_decided(self):
        # Draw 0 of the d = 2 near-sharp pairs from default_rng(2026) at
        # lam = 1, where nothing is smeared: the oracle ends "undetermined"
        # after MAX_ITER iterations, far from any thin band.
        rng = np.random.default_rng(2026)
        o1, o2 = (DichotomicObservable.from_yes_effect(_near_sharp_effect(rng, 2)) for _ in range(2))
        rep = povm_joint_observable(o1, o2, 1.0)
        assert rep.feasible != "undetermined"
        o1lam, o2lam = smear(o1, 1.0), smear(o2, 1.0)
        if rep.feasible == "yes":
            _assert_witnesses_yes(rep, o1lam, o2lam)
        else:
            _assert_certifies_no(rep, o1lam, o2lam)


class TestCovariance:
    @seed(2016)
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans(), st.booleans())
    def test_swap_relabel_and_unitary_leave_the_decision(self, rng_seed, d, sharp1, sharp2):
        # Incompatibility is invariant under swapping the pair, relabelling
        # E <-> I - E and a common unitary conjugation, and monotone in lam
        # (Heinosaari, Miyadera & Ziman 2016); "undetermined" contradicts no
        # verdict.  lam lies past 1/sqrt(2), where near-sharp pairs reach the oracle.
        rng = np.random.default_rng(rng_seed)
        e1, e2 = (_random_projector(rng, d, int(rng.integers(0, d + 1))).matrix if sharp
                  else _near_sharp_effect(rng, d) for sharp in (sharp1, sharp2))
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        lam = float(rng.uniform(LAMBDA_OPT, 1.0))
        variants = [(e1, e2), (e2, e1), (np.eye(d) - e1, e2), (u @ e1 @ u.conj().T, u @ e2 @ u.conj().T)]
        obs = [tuple(DichotomicObservable.from_yes_effect(e) for e in pair) for pair in variants]
        top = _observable_pair(*obs[0]).top()
        rep = povm_joint_observable(*obs[0], lam)
        for pair in obs[1:]:
            assert _observable_pair(*pair).top() == pytest.approx(top, rel=1e-12)
            if abs(lam * top - 2.0) >= 1e-6:
                assert {rep.feasible, povm_joint_observable(*pair, lam).feasible} != {"yes", "no"}
        if rep.feasible == "yes":
            assert povm_joint_observable(*obs[0], 0.9 * lam).feasible != "no"


def _direct_sum(x, y):
    """The block-diagonal matrix of x and y."""
    out = np.zeros((len(x) + len(y),) * 2, dtype=complex)
    out[:len(x), :len(x)], out[len(x):, len(x):] = x, y
    return out


class TestDirectSum:
    @seed(2016)
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4), st.booleans(), st.booleans())
    def test_a_direct_sum_takes_the_larger_top_and_decides_as_both_summands(
            self, rng_seed, d1, d2, sharp1, sharp2):
        # |A+B| and |A-B| of a block-diagonal pair are block diagonal, so its
        # top is the larger summand's, and a joint observable of the sum cuts
        # down to one of each summand, while one of each sums to one of the sum
        # (Heinosaari, Miyadera & Ziman 2016): a "yes" exactly when both say
        # "yes", away from the gate's edge lam * top = 2.
        rng = np.random.default_rng(rng_seed)
        summands = [tuple(_random_projector(rng, d, int(rng.integers(0, d + 1))).matrix if sharp
                          else _near_sharp_effect(rng, d) for _ in range(2))
                    for d, sharp in ((d1, sharp1), (d2, sharp2))]
        effects = [*summands, tuple(map(_direct_sum, *summands))]
        obs = [tuple(DichotomicObservable.from_yes_effect(e) for e in pair) for pair in effects]
        pairs = [_observable_pair(*pair) for pair in obs]
        assert pairs[2].top() == pytest.approx(max(pairs[0].top(), pairs[1].top()), rel=1e-12)
        if sharp1 and sharp2:
            values = [lambda_opt_search(*pair) for pair in obs]
            assert values[2] == pytest.approx(min(values[:2]), rel=0, abs=1e-12)
        lam = float(rng.uniform(LAMBDA_OPT, 1.0))
        if all(abs(lam * pair.top() - 2.0) > 1e-6 for pair in pairs[:2]):
            yes = [joint._decide(pair, lam).feasible == "yes" for pair in pairs]
            assert yes[2] == (yes[0] and yes[1])
