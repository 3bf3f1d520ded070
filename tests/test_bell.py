"""Correlators, CHSH reports, no-signaling boxes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharpjoint import (
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    NoSignalingBox,
    ValidationError,
    box_chsh,
    chsh,
    local_deterministic_boxes,
    optimal_settings,
    pr_box,
    singlet,
    smeared_chsh,
)
from unsharpjoint.bell import SETTINGS, _chsh, smeared_chsh_values

TWO_SQRT2 = 2.8284271247461903
INV_SQRT2 = 0.7071067811865475
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _observable_of(matrix) -> DichotomicObservable:
    """Sharp observable of a +/-1-valued Hermitian: yes-effect (I + M)/2."""
    return DichotomicObservable.from_yes_effect((np.eye(2, dtype=complex) + matrix) / 2.0)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestOptimalSettings:
    def test_matches_the_pauli_reference_bit_for_bit(self):
        # z, x, (z + x)/sqrt(2), (z - x)/sqrt(2) as (I + M)/2 of Pauli matrices,
        # the signs of zero parts included.
        s2 = math.sqrt(2.0)
        want = [_observable_of(m) for m in
                (PAULI_Z, PAULI_X, (PAULI_Z + PAULI_X) / s2, (PAULI_Z - PAULI_X) / s2)]
        for got, ref in zip(optimal_settings(), want, strict=True):
            for g, r in ((got.yes_effect.matrix, ref.yes_effect.matrix),
                         (got.no_effect.matrix, ref.no_effect.matrix)):
                for part in (np.real, np.imag):
                    assert np.array_equal(part(g), part(r))
                    assert np.array_equal(np.signbit(part(g)), np.signbit(part(r)))


class TestCorrelation:
    """Single correlators Tr[state (A (x) B)], read as the first term of chsh(state, a, a, b, b)."""

    def test_singlet_anticorrelated(self):
        z = _observable_of(PAULI_Z)
        assert chsh(singlet(), z, z, z, z).terms[0] == pytest.approx(-1.0, abs=1e-12)

    def test_product_state_uncorrelated_in_x(self):
        rho = DensityMatrix.pure([1, 0, 0, 0])
        x = _observable_of(PAULI_X)
        assert abs(chsh(rho, x, x, x, x).terms[0]) < 1e-12

    def test_singlet_tilted(self):
        # Bloch-formula oracle: the singlet correlator is -a.b, so z
        # against (z+x)/sqrt(2) gives exactly -1/sqrt(2).
        z = _observable_of(PAULI_Z)
        tilted = _observable_of((PAULI_Z + PAULI_X) / math.sqrt(2))
        assert chsh(singlet(), z, z, tilted, tilted).terms[0] == pytest.approx(
            -INV_SQRT2, abs=1e-12
        )

    def test_dimension_mismatch(self):
        z = _observable_of(PAULI_Z)
        with pytest.raises(ValidationError, match=r"^same-dimension: incompatible dimensions \(2, 2, 2\)$"):
            chsh(DensityMatrix(np.eye(2) / 2), z, z, z, z)


@pytest.mark.parametrize("wing,dims", [(0, (4, 3, 2)), (1, (4, 2, 3))], ids=["alice", "bob"])
@pytest.mark.parametrize(
    "call",
    [
        lambda state, a, b: chsh(state, *a, *b),
        lambda state, a, b: smeared_chsh(state, *a, *b, 0.5),
        lambda state, a, b: smeared_chsh_values(state, *a, *b, [0.5, 0.9]),
        lambda state, a, b: chsh(state, a[1], a[1], b[1], b[1]),
    ],
    ids=["chsh", "smeared_chsh", "smeared_chsh_values", "chsh-one-pair"],
)
def test_a_qutrit_observable_on_one_wing_is_a_dimension_mismatch(call, wing, dims):
    # Every pair is checked before the observables are stacked, so a 3x3 a2
    # or b2 names the state's dimension and its pair's, not a numpy shape error.
    a1, a2, b1, b2 = optimal_settings()
    qutrit = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0, 0.0]))
    wings = [[a1, a2], [b1, b2]]
    wings[wing][1] = qutrit
    with pytest.raises(ValidationError) as exc:
        call(singlet(), *wings)
    assert exc.value.invariant == "same-dimension"
    assert str(exc.value) == f"same-dimension: incompatible dimensions {dims}"


class TestChsh:
    def test_product_states_respect_local_bound(self):
        rng = np.random.default_rng(151)
        for _ in range(50):
            rho = DensityMatrix(
                np.kron(
                    DensityMatrix.pure(rng.normal(size=2) + 1j * rng.normal(size=2)).matrix,
                    DensityMatrix.pure(rng.normal(size=2) + 1j * rng.normal(size=2)).matrix,
                )
            )
            obs = [BlochVector(_random_unit(rng)).observable() for _ in range(4)]
            assert chsh(rho, *obs).value <= 2.0 + 1e-9

    def test_singlet_optimal_settings_saturate_tsirelson(self):
        rep = chsh(singlet(), *optimal_settings())
        assert rep.value == pytest.approx(TWO_SQRT2, abs=1e-9)
        assert rep.bound_lambda == pytest.approx(TWO_SQRT2, abs=1e-15)
        assert rep.within_bound

    def test_random_sweep_below_tsirelson(self):
        rng = np.random.default_rng(157)
        worst = 0.0
        for _ in range(500):
            rho = DensityMatrix.pure(rng.normal(size=4) + 1j * rng.normal(size=4))
            obs = [BlochVector(_random_unit(rng)).observable() for _ in range(4)]
            worst = max(worst, chsh(rho, *obs).value)
        assert worst <= TWO_SQRT2 + 1e-6


    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_min=True))
    def test_value_is_the_sum_of_its_own_terms(self, seed, lam):
        # A report's value is |t11 + t12 + t21 - t22| of its own terms, in
        # Python floats, with the bits of the table's numpy sum _chsh.
        rng = np.random.default_rng(seed)
        rho = DensityMatrix.pure(rng.normal(size=4) + 1j * rng.normal(size=4))
        obs = [BlochVector(_random_unit(rng)).observable() for _ in range(4)]
        for rep in (chsh(rho, *obs), smeared_chsh(rho, *obs, lam)):
            t11, t12, t21, t22 = rep.terms
            assert type(rep.value) is float
            assert rep.value == abs(t11 + t12 + t21 - t22)
            assert rep.value == float(_chsh(np.array(rep.terms).reshape(2, 2)))


class TestSmearedChsh:
    def test_lambda_one_matches_sharp(self):
        sharp = chsh(singlet(), *optimal_settings())
        smeared = smeared_chsh(singlet(), *optimal_settings(), 1.0)
        assert smeared.value == pytest.approx(sharp.value, abs=1e-12)

    def test_saturation_at_lambda_opt(self):
        rep = smeared_chsh(singlet(), *optimal_settings(), 1.0 / math.sqrt(2.0))
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert rep.bound_lambda == 2.0
        assert rep.within_bound

    def test_half_lambda(self):
        rep = smeared_chsh(singlet(), *optimal_settings(), 0.5)
        assert rep.value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_scaling_identity(self):
        rng = np.random.default_rng(163)
        for _ in range(50):
            rho = DensityMatrix.pure(rng.normal(size=4) + 1j * rng.normal(size=4))
            obs = [BlochVector(_random_unit(rng)).observable() for _ in range(4)]
            lam = 1.0 - float(rng.uniform(0.0, 1.0))
            sharp = chsh(rho, *obs).value
            smeared = smeared_chsh(rho, *obs, lam).value
            assert abs(smeared - lam * sharp) <= 1e-12


def _uniform() -> dict:
    """A fresh table of the uniform (white-noise) box: every entry 1/4."""
    return {key: [[0.25, 0.25], [0.25, 0.25]] for key in SETTINGS}


class TestBoxes:
    def test_pr_box_hits_four_exactly(self):
        rep = box_chsh(pr_box())
        assert rep.value == 4.0
        assert not rep.within_bound

    def test_deterministic_boxes_exactly_two(self):
        boxes = local_deterministic_boxes()
        assert len(boxes) == 16
        reports = [box_chsh(b) for b in boxes]
        assert all(r.value == 2.0 for r in reports)
        # The signed combination reaches +2 on exactly half of them.
        signed = [t11 + t12 + t21 - t22 for t11, t12, t21, t22 in (r.terms for r in reports)]
        assert signed.count(2.0) == 8

    def test_white_noise_vanishes(self):
        assert box_chsh(NoSignalingBox(_uniform())).value == 0.0

    def test_no_signaling_residuals(self):
        for box in (pr_box(), NoSignalingBox(_uniform()), *local_deterministic_boxes()):
            alice = box.p.sum(axis=3)  # [x, y, a]
            bob = box.p.sum(axis=2)  # [x, y, b]
            assert np.max(np.abs(alice[:, 0] - alice[:, 1])) <= 1e-12
            assert np.max(np.abs(bob[0] - bob[1])) <= 1e-12

    def test_random_mixtures_stay_below_four(self):
        rng = np.random.default_rng(167)
        vertices = np.array([b.p for b in (*local_deterministic_boxes(), pr_box())])
        for _ in range(50):
            w = rng.dirichlet(np.ones(len(vertices)))
            mixed = np.tensordot(w, vertices, axes=1).reshape(4, 2, 2)
            table = {key: cell.tolist() for key, cell in zip(("11", "12", "21", "22"), mixed)}
            assert box_chsh(NoSignalingBox(table)).value <= 4.0 + 1e-12

    def test_negative_entry_rejected(self):
        table = dict(zip(SETTINGS, pr_box().p.reshape(4, 2, 2).tolist()))
        table["11"][0][0] = -0.1
        table["11"][0][1] = 0.6
        with pytest.raises(ValidationError, match=r"^box-nonnegative"):
            NoSignalingBox(table)

    def test_unnormalized_rejected(self):
        table = _uniform()
        table["22"][1][1] = 0.3
        with pytest.raises(ValidationError, match=r"^box-normalization"):
            NoSignalingBox(table)

    @pytest.mark.parametrize(
        "cell",
        [
            5,
            None,
            "ab",
            [[0.5, 0.5], [0.0]],
            [[0.25, 0.25, 0.0], [0.25, 0.25]],
            [[0.25, "x"], [0.25, 0.25]],
            [[0.25, math.nan], [0.25, 0.25]],
            # Normalized but for the booleans, which numpy reads as 1.0 and 0.0.
            [[True, False], [False, False]],
            [[1.0, 0.0], [0.0, False]],
            np.array([[True, False], [False, False]]),
        ],
    )
    def test_malformed_cell_rejected(self, cell):
        table = _uniform()
        table["11"] = cell
        with pytest.raises(ValidationError, match=r"^box-cell"):
            NoSignalingBox(table)

    def test_table_must_be_a_mapping(self):
        with pytest.raises(ValidationError, match=r"^box-settings"):
            NoSignalingBox(3)

    def test_signaling_rejected(self):
        # Alice's outcome copies Bob's setting: grossly signaling.
        table = {
            "11": [[1, 0], [0, 0]],
            "12": [[0, 0], [1, 0]],
            "21": [[1, 0], [0, 0]],
            "22": [[0, 0], [1, 0]],
        }
        with pytest.raises(ValidationError, match=r"^no-signaling-alice"):
            NoSignalingBox(table)

    @pytest.mark.parametrize(
        "index, bits",
        list(enumerate(itertools.product((0, 1), repeat=4))),
        ids=["".join(map(str, bits)) for bits in itertools.product((0, 1), repeat=4)],
    )
    def test_deterministic_boxes_bit_by_bit(self, index, bits):
        # Box `index` has p[x, y, a, b] = [a = alpha_x] [b = beta_y] for the
        # outcome bits (alpha_1, alpha_2, beta_1, beta_2) = bits, Bob's second
        # bit varying fastest.
        boxes = local_deterministic_boxes()
        assert len(boxes) == 16
        a1, a2, b1, b2 = bits
        want = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product((0, 1), repeat=2):
            want[x, y, (a1, a2)[x], (b1, b2)[y]] = 1.0
        box = boxes[index]
        assert box.p.dtype == want.dtype and box.p.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "boxes",
        [lambda: [pr_box()], lambda: [NoSignalingBox(_uniform())], local_deterministic_boxes],
        ids=["pr", "uniform", "deterministic"],
    )
    def test_table_of_p_rebuilds_the_box(self, boxes):
        # The tables the tests build by hand: key "xy" holds p[x-1, y-1] as [a][b].
        for box in boxes():
            table = dict(zip(SETTINGS, box.p.reshape(4, 2, 2).tolist()))
            for (x, y, a, b), value in np.ndenumerate(box.p):
                assert table[f"{x + 1}{y + 1}"][a][b] == value
            assert NoSignalingBox(table).p.tobytes() == box.p.tobytes()
