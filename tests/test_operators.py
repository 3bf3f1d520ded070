"""Operator types, validation, tensor products, eigenvalue helpers."""

import math

import numpy as np
import pytest

from unsharpjoint import (
    DensityMatrix,
    DichotomicObservable,
    Effect,
    NotHermitian,
    NotProjector,
    Projector,
    SpectrumOutOfRange,
    ValidationError,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    projector_onto,
    tensor,
    validate_effect,
)
from unsharpjoint.operators import PAULI_X, PAULI_Z, identity

# Frozen by direct arithmetic on the diagonal 2x2 case.
HALF_PLUS = 0.8535533905932737   # (2 + sqrt 2) / 4
HALF_MINUS = 0.1464466094067262  # (2 - sqrt 2) / 4


class TestValidateEffect:
    def test_identity_is_an_effect(self):
        e = validate_effect(identity(2))
        assert e.dim == 2

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(SpectrumOutOfRange) as err:
            validate_effect(np.diag([0.5, 1.2]).astype(complex))
        assert "1.2" in str(err.value)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(SpectrumOutOfRange):
            validate_effect(np.diag([-0.1, 0.5]).astype(complex))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_effect(m)

    def test_unsharp_z_effect(self):
        m = 0.5 * (identity(2) + PAULI_Z / math.sqrt(2))
        e = validate_effect(m)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(e.matrix), [HALF_MINUS, HALF_PLUS], atol=1e-14
        )

    def test_custom_tolerance(self):
        m = np.diag([1.0 + 5e-7, 0.5]).astype(complex)
        with pytest.raises(SpectrumOutOfRange):
            validate_effect(m)
        assert validate_effect(m, tol=1e-6).dim == 2

    def test_constructed_effects_stay_in_window(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            eigs = rng.uniform(0, 1, size=d)
            e = Effect((q * eigs) @ q.conj().T)
            eigs = np.linalg.eigvalsh(e.matrix)
            assert eigs[0] >= -1e-9
            assert eigs[-1] <= 1 + 1e-9

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_bad_tolerance_rejected(self, tol):
        # Against a NaN or infinite window every spectrum comparison is
        # false, so this non-effect would otherwise validate.
        m = np.diag([5.0, -3.0]).astype(complex)
        with pytest.raises(ValidationError, match="effect-tol"):
            validate_effect(m, tol=tol)
        with pytest.raises(ValidationError, match="effect-tol"):
            Effect(m, tol)

    def test_matrix_is_immutable(self):
        e = validate_effect(identity(2))
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 5.0


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(tensor(identity(2), identity(2)), identity(4))

    def test_diagonal_case(self):
        np.testing.assert_array_equal(
            tensor(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex)
        )

    def test_singlet_xx_expectation(self):
        # Oracle: explicit 4x4 matrix-vector arithmetic on the singlet.
        psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        val = float((psi.conj() @ tensor(PAULI_X, PAULI_X) @ psi).real)
        assert abs(val - (-1.0)) < 1e-12

    def test_block_convention(self):
        # Entry ((i*db + k), (j*db + l)) is a[i, j] * b[k, l]; vectorized
        # complex multiply may differ from the scalar product by one ulp.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = tensor(a, b)
        expected = (a[:, None, :, None] * b[None, :, None, :]).reshape(6, 6)
        np.testing.assert_allclose(t, expected, rtol=1e-15, atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)
            )
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert np.max(np.abs(left - right)) <= 1e-12


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([0.2, 0.8]).astype(complex)) == pytest.approx(0.2)

    def test_rank_one_projector(self):
        m = 0.5 * (identity(2) + 0.6 * PAULI_X + 0.8 * PAULI_Z)
        assert abs(min_eigenvalue(m)) < 1e-12

    def test_boundary_joint_effect(self):
        # The qubit joint construction at the criterion boundary has a
        # zero mode in every outcome effect.
        from unsharpjoint import LAMBDA_OPT, qubit_joint_observable

        rep = qubit_joint_observable([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], LAMBDA_OPT)
        for e in rep.witness.effects:
            assert abs(min_eigenvalue(e.matrix)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))


class TestObservable:
    def test_complement_construction(self):
        obs = DichotomicObservable.from_yes_effect(np.diag([0.3, 0.9]).astype(complex))
        np.testing.assert_allclose(
            obs.yes_effect.matrix + obs.no_effect.matrix, identity(2), atol=1e-15
        )

    def test_traces_sum_to_dimension(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            eigs = rng.uniform(0, 1, size=d)
            obs = DichotomicObservable.from_yes_effect((q * eigs) @ q.conj().T)
            total = np.trace(obs.yes_effect.matrix) + np.trace(obs.no_effect.matrix)
            assert abs(float(total.real) - d) <= 1e-8

    def test_mismatched_pair_rejected(self):
        yes = Effect(np.diag([0.3, 0.9]).astype(complex))
        other = Effect(np.diag([0.3, 0.3]).astype(complex))
        with pytest.raises(ValidationError):
            DichotomicObservable(yes, other)


class TestProjector:
    def test_rank_equals_trace(self):
        p = projector_onto([1, 1j])
        assert p.rank == 1
        assert abs(float(np.trace(p.matrix).real) - 1.0) < 1e-12

    def test_non_idempotent_rejected(self):
        with pytest.raises(NotProjector):
            Projector(np.diag([0.5, 0.5]).astype(complex), rank=1)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            Projector(np.diag([1.0, 0.0]).astype(complex), rank=2)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure([1, 1])
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_psd_enforced(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))


class TestJsonFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_integral_float_dim_accepted(self):
        back = matrix_from_json({"dim": 1.0, "re": [[0.5]], "im": [[0.0]]})
        np.testing.assert_array_equal(back, [[0.5]])

    @pytest.mark.parametrize(
        "obj",
        [
            3,
            [[1, 0], [0, 1]],
            {"dim": "abc", "re": [[1]], "im": [[0]]},
            {"dim": 1.5, "re": [[1]], "im": [[0]]},
            {"dim": 1, "re": [["x"]], "im": [[0]]},
            {"dim": 1, "re": [[1]], "im": [[{}]]},
            {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
        ],
    )
    def test_malformed_operator_rejected(self, obj):
        with pytest.raises(ValidationError, match="operator-json"):
            matrix_from_json(obj)
