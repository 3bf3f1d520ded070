"""Smearing map, mean values, and the linear scaling identity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from unsharpjoint import (
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    Projector,
    ValidationError,
    criterion_value,
    mean_value,
    optimal_settings,
    povm_joint_observable,
    pvm_joint_observable,
    qubit_joint_observable,
    singlet,
    smear,
    smeared_chsh,
    validate_lambda,
)
from unsharpjoint.bell import smeared_chsh_values
from unsharpjoint.joint import qubit_verdicts
from unsharpjoint.operators import identity

HALF_PLUS = 0.8535533905932737   # (2 + sqrt 2) / 4
HALF_MINUS = 0.1464466094067262  # (2 - sqrt 2) / 4


def _random_observable(rng, d=2):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    eigs = rng.uniform(0, 1, size=d)
    return DichotomicObservable.from_yes_effect((q * eigs) @ q.conj().T)


def _random_state(rng, d=2):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix.pure(v)


class TestValidateLambda:
    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            validate_lambda(0.0)

    def test_above_one_rejected(self):
        with pytest.raises(ValidationError):
            validate_lambda(1.0 + 1e-9)

    def test_interval_endpoints(self):
        assert validate_lambda(1.0) == 1.0
        assert validate_lambda(1e-9) == 1e-9

    @pytest.mark.parametrize(
        "lam, text",
        [(True, "True"), ("0.5", "'0.5'"), (Fraction(3, 2), "Fraction(3, 2)"), (math.nan, "nan"),
         (0, "0"), (-0.0, "-0.0"), (math.nextafter(1.0, 2.0), "1.0000000000000002"),
         (np.float64(math.nextafter(1.0, 2.0)), "np.float64(1.0000000000000002)"),
         (np.float64(math.nan), "np.float64(nan)"), (np.float64(-0.0), "np.float64(-0.0)")],
        ids=["bool", "str", "fraction", "nan", "zero", "negative-zero", "next-above-one",
             "float64-next-above-one", "float64-nan", "float64-negative-zero"],
    )
    def test_error_names_the_value(self, lam, text):
        # A plain float in (0, 1] skips the ABC check; every other value
        # takes the full check and names itself in the error.
        with pytest.raises(ValidationError) as exc:
            validate_lambda(lam)
        assert str(exc.value) == f"lambda-in-(0,1]: got {text}"


_Z, _X = (DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex)),
          DichotomicObservable.from_yes_effect(np.full((2, 2), 0.5, dtype=complex)))
_ZX = (BlochVector([0, 0, 1]), BlochVector([1, 0, 0]))

# Every public function that takes an unsharpness, called with lam.
LAMBDA_TAKERS = {
    "smear": lambda lam: smear(_Z, lam),
    "criterion_value": lambda lam: criterion_value(*_ZX, lam),
    "qubit_joint_observable": lambda lam: qubit_joint_observable(*_ZX, lam),
    "povm_joint_observable": lambda lam: povm_joint_observable(_Z, _X, lam),
    "pvm_joint_observable": lambda lam: pvm_joint_observable(
        *(Projector(b.observable().yes_effect.matrix, rank=1) for b in _ZX), lam),
    "smeared_chsh": lambda lam: smeared_chsh(singlet(), *optimal_settings(), lam),
    "qubit_verdicts": lambda lam: qubit_verdicts(*_ZX, [lam]),
    "smeared_chsh_values": lambda lam: smeared_chsh_values(singlet(), *optimal_settings(), [lam]),
    "validate_lambda": validate_lambda,
}


class TestLambdaIsARealNumber:
    @pytest.mark.parametrize("taker", sorted(LAMBDA_TAKERS))
    @pytest.mark.parametrize(
        "lam", [None, "abc", "0.5", True, [0.5], 1 + 0j, math.nan, 0, 1 + 1e-9, Fraction(1, 10**400),
                -0.0, math.nextafter(1.0, 2.0), np.float64(math.nextafter(1.0, 2.0))],
        ids=["none", "abc", "str-half", "true", "list", "complex", "nan", "zero", "above-one",
             "fraction-below-float", "negative-zero", "next-above-one", "float64-next-above-one"],
    )
    def test_rejected_as_validation_error(self, taker, lam):
        # None and "abc" used to escape as a bare TypeError or ValueError
        # from float(), "0.5" and True were taken as unsharpnesses, and a
        # positive Fraction below the smallest float as lambda 0.0.
        with pytest.raises(ValidationError, match=r"lambda-in-\(0,1\]"):
            LAMBDA_TAKERS[taker](lam)

    @pytest.mark.parametrize("taker", sorted(LAMBDA_TAKERS))
    @pytest.mark.parametrize(
        "lam", [np.float32(0.5), np.float64(0.5), 1, Fraction(1, 2), 5e-324, math.nextafter(1.0, 0.0),
                np.float64(1.0)],
        ids=["float32", "float64", "int-one", "fraction", "smallest-float", "next-below-one",
             "float64-one"],
    )
    def test_real_numbers_accepted(self, taker, lam):
        LAMBDA_TAKERS[taker](lam)
        assert type(validate_lambda(lam)) is float and validate_lambda(lam) == float(lam)

    @pytest.mark.parametrize(
        "call",
        [lambda lams: qubit_verdicts(*_ZX, lams),
         lambda lams: smeared_chsh_values(singlet(), *optimal_settings(), lams)],
        ids=["qubit_verdicts", "smeared_chsh_values"],
    )
    @pytest.mark.parametrize("lams", [0.5, None, np.array(0.5)], ids=["float", "none", "0-d-array"])
    def test_a_grid_that_is_not_a_sequence_is_refused(self, call, lams):
        # Each used to escape as a bare TypeError from iterating over lams.
        with pytest.raises(ValidationError, match=r"^lambda-sequence: got "):
            call(lams)


class TestSmear:
    def test_lambda_one_is_identity_map(self):
        rng = np.random.default_rng(31)
        obs = _random_observable(rng)
        out = smear(obs, 1.0)
        np.testing.assert_array_equal(out.yes_effect.matrix, obs.yes_effect.matrix)
        np.testing.assert_array_equal(out.no_effect.matrix, obs.no_effect.matrix)

    def test_sharp_z_at_lambda_opt(self):
        obs = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex))
        out = smear(obs, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(
            out.yes_effect.matrix, np.diag([HALF_PLUS, HALF_MINUS]), atol=1e-15
        )

    def test_eigenvalue_map(self):
        # Each eigenvalue a of the yes-effect moves to (1-lam)/2 + lam*a.
        rng = np.random.default_rng(37)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            eigs = np.sort(rng.uniform(0, 1, size=d))
            obs = DichotomicObservable.from_yes_effect(np.diag(eigs).astype(complex))
            lam = float(rng.uniform(0.05, 1.0))
            smeared = np.linalg.eigvalsh(smear(obs, lam).yes_effect.matrix)
            np.testing.assert_allclose(
                smeared, (1 - lam) / 2 + lam * eigs, atol=1e-12
            )

    def test_complement_exact(self):
        rng = np.random.default_rng(41)
        obs = _random_observable(rng, d=4)
        out = smear(obs, 0.37)
        np.testing.assert_allclose(
            out.yes_effect.matrix + out.no_effect.matrix, identity(4), atol=1e-14
        )

    def test_composition(self):
        # Two smearings compose multiplicatively in lambda.
        rng = np.random.default_rng(43)
        for _ in range(20):
            obs = _random_observable(rng, d=3)
            l1, l2 = rng.uniform(0.1, 1.0, size=2)
            twice = smear(smear(obs, l1), l2)
            once = smear(obs, l1 * l2)
            assert (
                np.max(np.abs(twice.yes_effect.matrix - once.yes_effect.matrix))
                <= 1e-12
            )


class TestMeanValue:
    def test_eigenstate(self):
        obs = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex))
        state = DensityMatrix.pure([1, 0])
        assert mean_value(obs, state) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_bloch(self):
        rng = np.random.default_rng(47)
        state = DensityMatrix(np.eye(2) / 2)
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            from unsharpjoint import BlochVector

            obs = BlochVector(v).observable()
            assert abs(mean_value(obs, state)) < 1e-14

    def test_orthogonal_directions(self):
        # <0| (|+><+| - |-><-|) |0> = 0 by 2x2 trace arithmetic.
        plus = np.full((2, 2), 0.5).astype(complex)
        obs = DichotomicObservable.from_yes_effect(plus)
        state = DensityMatrix.pure([1, 0])
        assert abs(mean_value(obs, state)) < 1e-14

    def test_dimension_mismatch(self):
        obs = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValidationError, match=r"^same-dimension: incompatible dimensions \(2, 3\)$"):
            mean_value(obs, DensityMatrix(np.eye(3) / 3))


class TestSmearedMean:
    """The mean of the smeared observable against lam times the sharp mean."""

    def test_lambda_one(self):
        rng = np.random.default_rng(53)
        obs, state = _random_observable(rng), _random_state(rng)
        sharp = mean_value(obs, state)
        assert mean_value(smear(obs, 1.0), state) == pytest.approx(sharp, abs=1e-14)

    def test_half_lambda_on_eigenstate(self):
        # Mean 1 scales to exactly 0.5 at lam = 1/2.
        obs = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex))
        state = DensityMatrix.pure([1, 0])
        assert mean_value(smear(obs, 0.5), state) == pytest.approx(0.5, abs=1e-14)
        assert 0.5 * mean_value(obs, state) == pytest.approx(0.5, abs=1e-14)

    def test_scaling_identity_sweep(self):
        rng = np.random.default_rng(59)
        worst = 0.0
        for _ in range(10_000):
            obs, state = _random_observable(rng), _random_state(rng)
            lam = 1.0 - float(rng.uniform(0.0, 1.0))
            smeared, sharp = mean_value(smear(obs, lam), state), mean_value(obs, state)
            worst = max(worst, abs(smeared - lam * sharp))
        assert worst <= 1e-12
