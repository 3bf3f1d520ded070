"""Operator types, their validation and the JSON operator format."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from unsharpjoint import (
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    Effect,
    JointObservable,
    NoSignalingBox,
    Projector,
    ValidationError,
    box_chsh,
    check_joint,
    chsh,
    feasibility_oracle,
    local_deterministic_boxes,
    matrix_from_json,
    matrix_to_json,
    mean_value,
    neumark_dilate,
    povm_joint_observable,
    pr_box,
    pvm_joint_observable,
    singlet,
    smear,
    smeared_chsh,
    two_projector_blocks,
)
from unsharpjoint.bell import SETTINGS, smeared_chsh_values
from unsharpjoint.operators import HERMITIAN_TOL, PSD_TOL, _hermitian_part, _unit_vector, identity

_EMPTY = np.zeros((0, 0))
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Effect(_EMPTY),
        lambda: DichotomicObservable.from_yes_effect(_EMPTY),
        lambda: DensityMatrix(_EMPTY),
        lambda: Projector(_EMPTY, 0),
        lambda: Projector.from_matrix(_EMPTY),
        lambda: pvm_joint_observable(Projector(_EMPTY, 0), Projector(_EMPTY, 0), 0.5),
        lambda: two_projector_blocks(Projector(_EMPTY, 0), Projector(_EMPTY, 0)),
        lambda: matrix_to_json(_EMPTY),
    ],
    ids=["effect", "observable", "density", "projector", "projector-from-matrix", "pvm",
         "blocks", "json"],
)
def test_zero_dimension_is_rejected(build):
    # A 0x0 matrix used to pass as square, and later steps died with an
    # IndexError or a zero-size ValueError.
    with pytest.raises(ValidationError, match="square-matrix"):
        build()


@pytest.mark.parametrize(
    "m",
    ["abc", [[1, 2], [3]], {"a": 1}, [["1", 0], [0, "0.5"]], [["1", 0], [0, "0"]],
     [[10**400, 0], [0, 0]], [[0.5, 0], [0, -(10**400)]]],
    ids=["string", "ragged", "dict", "numeric-strings", "numeric-strings-01", "huge-int",
         "huge-negative-int"],
)
@pytest.mark.parametrize("build", [Effect, DensityMatrix], ids=["effect", "density"])
def test_non_numeric_input_is_rejected(build, m):
    # numpy's own ValueError, TypeError or OverflowError used to escape
    # untyped, and strings such as "1" were read as numbers.
    with pytest.raises(ValidationError, match="square-matrix"):
        build(m)


_OBS = DichotomicObservable.from_yes_effect(np.diag([0.3, 0.6]))
_RAW = 0.5 * np.eye(2)
_RAW4 = 0.25 * np.eye(4)
_P = Projector.from_matrix(np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize(
    "call, invariant",
    [
        (lambda: smear(_RAW, 0.5), "dichotomic-observable"),
        (lambda: neumark_dilate(_RAW), "dichotomic-observable"),
        (lambda: povm_joint_observable(_OBS, _RAW, 0.5), "dichotomic-observable"),
        (lambda: feasibility_oracle(_RAW, _OBS), "dichotomic-observable"),
        (lambda: mean_value(_RAW, DensityMatrix(np.eye(2) / 2)), "dichotomic-observable"),
        (lambda: chsh(singlet(), _OBS, _OBS, _OBS, _RAW), "dichotomic-observable"),
        (lambda: smeared_chsh(singlet(), _RAW, _OBS, _OBS, _OBS, 0.5), "dichotomic-observable"),
        (lambda: mean_value(_OBS, _RAW), "density-matrix"),
        (lambda: chsh(_RAW4, _OBS, _OBS, _OBS, _OBS), "density-matrix"),
        (lambda: smeared_chsh(_RAW4, _OBS, _OBS, _OBS, _OBS, 0.5), "density-matrix"),
        (lambda: smeared_chsh_values(singlet(), _OBS, _OBS, _RAW, _OBS, [0.5]),
         "dichotomic-observable"),
        (lambda: smeared_chsh_values(_RAW4, _OBS, _OBS, _OBS, _OBS, [0.5]), "density-matrix"),
        (lambda: pvm_joint_observable(_P, _RAW, 0.5), "projector"),
        (lambda: two_projector_blocks(_RAW, _P), "projector"),
        (lambda: check_joint(_RAW, _OBS, _OBS), "joint-observable"),
        (lambda: check_joint(povm_joint_observable(_OBS, _OBS, 0.5).witness, _OBS, _RAW),
         "dichotomic-observable"),
        (lambda: box_chsh(pr_box().p), "no-signaling-box"),
        (lambda: DichotomicObservable(_RAW, _RAW), "effect"),
        (lambda: JointObservable(*[_RAW / 2] * 4), "effect"),
    ],
    ids=["smear", "neumark-dilate", "povm-joint-observable", "feasibility-oracle", "mean-value",
         "chsh", "smeared-chsh", "smeared-chsh-values", "mean-value-state", "chsh-state",
         "smeared-chsh-state", "smeared-chsh-values-state", "pvm-joint-observable",
         "two-projector-blocks", "check-joint", "check-joint-observable", "box-chsh",
         "dichotomic-observable", "joint-observable"],
)
def test_raw_matrix_for_an_observable_is_rejected(call, invariant):
    # Each used to end in a bare AttributeError: 'numpy.ndarray' object has
    # no attribute 'yes_effect' (or 'dim', 'difference', 'matrix' or 'correlators').
    # A raw matrix is refused in place of any typed argument, not only an observable.
    with pytest.raises(ValidationError, match=f"^{invariant}: got ndarray$"):
        call()


@pytest.mark.parametrize(
    "build",
    [Effect, lambda m: Projector(m, 1), Projector.from_matrix, DensityMatrix, matrix_to_json],
    ids=["effect", "projector", "projector-from-matrix", "density", "json"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("at", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_a_non_finite_part_is_refused_by_every_square_matrix_caller(build, value, part, at):
    # One isfinite pass reads both parts: either part alone, nan or +-inf,
    # anywhere, is refused first, before any other check.
    m = np.diag([1.0, 0.0]).astype(complex)
    getattr(m, part)[at] = value
    with pytest.raises(ValidationError, match="^finite-entries$"):
        build(m)


# Frozen by direct arithmetic on the diagonal 2x2 case.
HALF_PLUS = 0.8535533905932737   # (2 + sqrt 2) / 4
HALF_MINUS = 0.1464466094067262  # (2 - sqrt 2) / 4


class TestEffect:
    def test_identity_is_an_effect(self):
        e = Effect(identity(2))
        assert e.dim == 2

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(ValidationError, match=r"^spectrum-in-\[0,1\]") as err:
            Effect(np.diag([0.5, 1.2]).astype(complex))
        assert "1.2" in str(err.value)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match=r"^spectrum-in-\[0,1\]"):
            Effect(np.diag([-0.1, 0.5]).astype(complex))

    @pytest.mark.parametrize("eig, ok", [(1 + 0.99e-9, True), (1 + 1.01e-9, False),
                                         (-0.99e-9, True), (-1.01e-9, False)])
    def test_the_one_window(self, eig, ok):
        # Every effect has the spectral window [-1e-9, 1 + 1e-9].
        m = np.diag([eig, 0.5]).astype(complex)
        if ok:
            assert Effect(m).dim == 2
        else:
            with pytest.raises(ValidationError, match=r"^spectrum-in-\[0,1\]"):
                Effect(m)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match=r"^hermiticity"):
            Effect(m)

    def test_unsharp_z_effect(self):
        m = 0.5 * (identity(2) + PAULI_Z / math.sqrt(2))
        e = Effect(m)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(e.matrix), [HALF_MINUS, HALF_PLUS], atol=1e-14
        )

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

    def test_matrix_is_immutable(self):
        e = Effect(identity(2))
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 5.0


class TestMinEigenvalue:
    def test_boundary_joint_effect(self):
        # The qubit joint construction at the criterion boundary has a
        # zero mode in every outcome effect.
        from unsharpjoint import LAMBDA_OPT, qubit_joint_observable

        m, n = BlochVector([0.0, 0.0, 1.0]), BlochVector([1.0, 0.0, 0.0])
        rep = qubit_joint_observable(m, n, LAMBDA_OPT)
        for e in rep.witness.effects:
            assert abs(np.linalg.eigvalsh(e.matrix)[0]) < 1e-9


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
        with pytest.raises(ValidationError, match=r"yes\+no=identity"):
            DichotomicObservable(yes, other)

    @pytest.mark.parametrize(
        "m,error",
        [
            (np.array([[0.5, 0.2], [0.0, 0.5]]), r"^hermiticity"),
            (np.diag([1.5, 0.0]), r"^spectrum-in-\[0,1\]"),
            (np.diag([0.5, -0.1]), r"^spectrum-in-\[0,1\]"),
            (np.array([[math.nan, 0.0], [0.0, 0.5]]), r"^finite-entries"),
            # m + m^H overflows to a nan spectrum, which every window test used to pass.
            (np.diag([1e308, -1e308]), r"^spectrum-in-\[0,1\]"),
        ],
        ids=["non-hermitian", "above-one", "negative", "nan", "hermitian-part-overflows"],
    )
    def test_from_yes_effect_validates_a_raw_matrix(self, m, error):
        with pytest.raises(ValidationError, match=error):
            DichotomicObservable.from_yes_effect(m)


class TestProjector:
    def test_rank_equals_trace(self):
        u = np.array([1, 1j]) / np.linalg.norm([1, 1j])
        p = Projector.from_matrix(np.outer(u, u.conj()))
        assert p.rank == 1
        assert abs(float(np.trace(p.matrix).real) - 1.0) < 1e-12

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValidationError, match=r"^idempotency"):
            Projector(np.diag([0.5, 0.5]).astype(complex), rank=1)

    @pytest.mark.parametrize("rank", [2, 0, -1, 3, 10**400], ids=["2", "0", "-1", "3", "10**400"])
    def test_wrong_rank_rejected(self, rank):
        # A rank outside [0, dim] equals no trace; 10**400 used to end in a
        # bare OverflowError from the float subtraction.
        with pytest.raises(ValidationError, match=r"^rank-equals-trace"):
            Projector(np.diag([1.0, 0.0]).astype(complex), rank=rank)

    @pytest.mark.parametrize("rank", [1.00000000001, 1.0, True, "1", None, [1]])
    def test_rank_must_be_an_integer(self, rank):
        # A float rank within RANK_TOL of the trace and True used to be kept
        # as given, and "1" ended in a bare TypeError; 1.0 is refused too.
        with pytest.raises(ValidationError, match="rank-integer"):
            Projector(np.diag([1.0, 0.0]).astype(complex), rank=rank)

    def test_a_trace_of_inf_minus_inf_is_a_typed_error(self):
        # The trace's reduction adds inf and -inf; under the suite's -W error,
        # numpy's "invalid value" RuntimeWarning used to escape instead.
        with pytest.raises(ValidationError, match=r"^rank-equals-trace: trace nan$"):
            Projector.from_matrix(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308]))

    def test_numpy_integer_rank_is_kept_as_int(self):
        p = Projector(np.diag([1.0, 0.0]).astype(complex), rank=np.int64(1))
        assert type(p.rank) is int and p.rank == 1

    @pytest.mark.parametrize("d", [4, 8, 12, 16, 32, 64])
    @pytest.mark.parametrize("eps", [1.01e-9, 1.4e-9, 5.8e-9, "entrywise-limit"])
    def test_idempotency_bound_is_spectral(self, d, eps):
        # Spreading a kernel eigenvalue -eps over all d^2 entries keeps each
        # entry of P^2 - P near eps/d; at eps = 0.99e-10 d it passes the
        # entrywise check, but the spectrum leaves the effect window.
        if eps == "entrywise-limit":
            eps = max(1.01e-9, 0.99e-10 * d)
        v = np.ones(d) / math.sqrt(d)
        q, _ = np.linalg.qr(np.column_stack([v, np.random.default_rng(5).normal(size=(d, d - 1))]))
        rank = d // 2
        with pytest.raises(ValidationError, match=r"^idempotency"):
            Projector(q[:, 1:rank + 1] @ q[:, 1:rank + 1].T - eps * np.outer(v, v), rank=rank)

    @pytest.mark.parametrize("skew", [0.0, 1e-12], ids=["hermitian", "skew-1e-12"])
    @pytest.mark.parametrize("eps", [0.5e-9, 0.99e-9, 1.01e-9, 1.4e-9])
    def test_frobenius_bound_reads_the_hermitian_part(self, monkeypatch, skew, eps):
        # The spectral test's matrix at d = 32, where eps spread over d^2
        # entries passes the entrywise check, plus a skew-Hermitian part.  An
        # exactly Hermitian m is its own hermitian part; any other m is
        # hermitized first.  Either way the verdict and the error text are
        # those of |h^2 - h|_F for h = (m + m^H) / 2.
        from unsharpjoint import operators

        d, rank = 32, 16
        v = np.ones(d) / math.sqrt(d)
        q, _ = np.linalg.qr(np.column_stack([v, np.random.default_rng(5).normal(size=(d, d - 1))]))
        m = q[:, 1:rank + 1] @ q[:, 1:rank + 1].T - eps * np.outer(v, v) + 0j
        m[0, 1] += 1j * skew
        m[1, 0] += 1j * skew
        h = _hermitian_part(m)
        want = np.linalg.norm(h @ h - h)
        hermitized = []
        real = operators._hermitian_part
        monkeypatch.setattr(operators, "_hermitian_part", lambda a: hermitized.append(1) or real(a))
        if want <= PSD_TOL:
            Projector(m, rank=rank)
        else:
            with pytest.raises(ValidationError, match=r"^idempotency") as exc:
                Projector(m, rank=rank)
            assert exc.value.residual == want
            assert str(exc.value) == str(ValidationError("idempotency", want))
        assert (want <= PSD_TOL) == (eps < PSD_TOL)
        assert len(hermitized) == (skew != 0)

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_haar_projectors_pass_and_are_effects(self, d):
        rng = np.random.default_rng(d)
        for rank in range(0, d + 1, max(1, d // 4)):
            q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            p = Projector.from_matrix(q[:, :rank] @ q[:, :rank].conj().T)
            assert p.rank == rank
            Effect(p.as_effect().matrix)

    @pytest.mark.parametrize("d", [2, 4, 64])
    def test_observable_is_built_once(self, d):
        # A projective pair's parts and a smear of the same projector share one observable.
        q, _ = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)) + 0j)
        p = Projector.from_matrix(q[:, : d // 2] @ q[:, : d // 2].conj().T)
        obs = p.observable()
        assert obs is p.observable()
        assert obs.yes_effect.matrix is p.matrix
        assert obs.no_effect.matrix.tobytes() == (identity(d) - p.matrix).tobytes()
        assert Projector.from_matrix(p.matrix).observable() is not obs


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_read_only_identity_per_dimension(self, d):
        eye = identity(d)
        assert identity(d) is eye
        assert np.array_equal(eye, np.eye(d)) and eye.dtype == complex
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    def test_density_matrices_cache_no_identity(self):
        # The maximally mixed state of a large dimension, built through the
        # constructor, and a pure state leave the identity cache as it was.
        before = identity.cache_info()
        rho = DensityMatrix(np.eye(300) / 300)
        DensityMatrix.pure(np.ones(300))
        assert identity.cache_info() == before
        assert rho.matrix[0, 0] == 1.0 / 300


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

    def test_psd_enforced_past_the_overflow_of_the_hermitian_part(self):
        # Eigenvalues 0.5 +- 1e308: (m + m^H) / 2 used to overflow to a nan
        # spectrum, which the psd check passed.
        with pytest.raises(ValidationError, match=r"^psd \(residual 1\.000e\+308\)$"):
            DensityMatrix(np.array([[0.5, 1e308], [1e308, 0.5]]))

    @pytest.mark.parametrize(
        "vec,invariant",
        [
            ([math.nan, 1.0], "finite-entries"),
            ([math.inf, 1.0], "finite-entries"),
            ([0.0, 0.0], "nonzero-vector"),
            ([], "nonzero-vector"),
            (["1", "0"], "numeric-vector"),
            (["1", 0], "numeric-vector"),
            ([10**400, 0], "numeric-vector"),
            ({"a": 1}, "numeric-vector"),
        ],
    )
    def test_pure_rejects_a_bad_vector(self, vec, invariant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=invariant):
                DensityMatrix.pure(vec)

    @pytest.mark.parametrize(
        "vec,ray",
        [
            ([1e200, 1e200], [1, 1]),
            ([1e-170, -1e-170j], [1, -1j]),
            ([1.5e308 + 1.5e308j, 1.0], [1 + 1j, 0]),
            ([5e-324, 0.0], [1, 0]),
        ],
    )
    def test_pure_state_of_a_vector_whose_norm_under_or_overflows(self, vec, ray):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = DensityMatrix.pure(vec)
        DensityMatrix(rho.matrix)
        u = np.asarray(ray, dtype=complex) / np.linalg.norm(ray)
        np.testing.assert_allclose(rho.matrix, np.outer(u, u.conj()), atol=1e-15)

    def test_pure_state_bytes_unchanged_for_ordinary_vectors(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 4, 16):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            u = v / np.linalg.norm(v)
            assert DensityMatrix.pure(v).matrix.tobytes() == np.outer(u, u.conj()).tobytes()


def _effect_matrix(seed, eigs):
    """A random-basis effect with the given spectrum (the basis is exact
    when seed is None, so eigenvalues 0 and 1 stay exact)."""
    d = len(eigs)
    if seed is None:
        return np.diag(eigs).astype(complex)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * np.asarray(eigs)) @ q.conj().T


def _revalidate(obs):
    """Rebuild an observable through every public check."""
    DichotomicObservable(Effect(obs.yes_effect.matrix), Effect(obs.no_effect.matrix))


UNIT_LAMBDA = st.floats(0.0, 1.0, exclude_min=True)


class TestDerivedValuesAreValid:
    """Values built unchecked (complements, smeared observables, Bloch
    projectors, pure states, Neumark projectors, the built-in boxes) pass
    every public check when rebuilt, and a joint observable's smallest
    eigenvalue is set when it is built."""

    @settings(max_examples=150)
    @given(
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        UNIT_LAMBDA,
    )
    def test_complement_and_smear(self, seed, eigs, lam):
        obs = DichotomicObservable.from_yes_effect(_effect_matrix(seed, eigs))
        _revalidate(obs)
        _revalidate(smear(obs, lam))
        if all(e in (0.0, 1.0) for e in eigs):
            p = Projector.from_matrix(obs.yes_effect.matrix)
            _revalidate(p.observable())
            _revalidate(smear(p.observable(), lam))

    @settings(max_examples=150)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-0.999e-12, 0.999e-12),
        UNIT_LAMBDA,
    )
    def test_bloch_vector_at_the_norm_slack(self, seed, slack, lam):
        v = np.random.default_rng(seed).normal(size=3)
        b = BlochVector(v / np.linalg.norm(v) * (1.0 + slack))
        Projector(b.observable().yes_effect.matrix, rank=1)
        _revalidate(b.observable())
        _revalidate(smear(b.observable(), lam))

    @settings(max_examples=150)
    @given(
        st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1.0),
                 min_size=1, max_size=6),
        st.integers(-320, 300),
    )
    def test_pure_state_from_tiny_and_large_vectors(self, entries, exponent):
        v = np.array(entries, dtype=complex) * 10.0**exponent
        if not np.any(v):
            with pytest.raises(ValidationError, match="nonzero-vector"):
                DensityMatrix.pure(v)
            return
        DensityMatrix(DensityMatrix.pure(v).matrix)

    @settings(max_examples=100)
    @given(
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0, -PSD_TOL / 2, 1.0 + PSD_TOL / 2]), st.floats(0.0, 1.0)),
                 min_size=1, max_size=16),
    )
    def test_neumark_projector(self, seed, eigs):
        dil = neumark_dilate(DichotomicObservable.from_yes_effect(_effect_matrix(seed, eigs)))
        d = len(eigs)
        assert dil.rank == d and not dil.matrix.flags.writeable
        assert Projector(dil.matrix, rank=d).matrix.tobytes() == dil.matrix.tobytes()

    def test_built_in_boxes(self):
        boxes = [pr_box(), *local_deterministic_boxes()]
        assert len(boxes) == 17
        for box in boxes:
            rebuilt = NoSignalingBox(dict(zip(SETTINGS, box.p.reshape(4, 2, 2))))
            assert box.p.shape == rebuilt.p.shape and not box.p.flags.writeable
            assert rebuilt.p.tobytes() == box.p.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_hand_built_joint_observable_s_smallest_eigenvalue(self, eigensolves, d):
        # G_k = S^(-1/2) X_k^H X_k S^(-1/2) for S = sum of X_k^H X_k: four effects summing to I.
        rng = np.random.default_rng(d)
        x = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        g = x.conj().swapaxes(1, 2) @ x
        w, v = np.linalg.eigh(g.sum(axis=0))
        root = (v / np.sqrt(w)) @ v.conj().T
        j = JointObservable(*(Effect(_hermitian_part(root @ m @ root)) for m in g))
        want = min(float(np.linalg.eigvalsh(e.matrix)[0]) for e in j.effects)
        eigensolves.clear()
        got = j.min_eigenvalue()
        assert eigensolves == []
        assert got.hex() == want.hex()


def _unit_by_linalg_norm(vec) -> np.ndarray:
    """vec / |vec| with |vec| from np.linalg.norm, rescaled first where |vec|^2
    leaves the normal range: the bits _unit_vector gives."""
    v = np.asarray(vec, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not math.sqrt(np.finfo(float).tiny) <= n < math.inf:
        scale = np.abs(np.concatenate([v.real, v.imag])).max()
        v = v.real / scale + 1j * (v.imag / scale)
        n = np.linalg.norm(v)
    return v / n


class TestUnitVectorBits:
    """_unit_vector takes np.linalg.norm's own sum: the same bits at every scale."""

    @pytest.mark.parametrize("vec", [
        [5e-324, 0.0], [5e-324, 5e-324j], [1e-310, -3e-320j, 2.5e-315], [1e-160, 1e-160j],
        [1e300, 1e300j, -1e300], [1e300, 1.0], [1.7e308, -1.7e308j], [1.0, 2j, -0.5, 0.25],
    ])
    def test_subnormal_and_huge_entries(self, vec):
        want = _unit_by_linalg_norm(vec)
        assert _unit_vector(vec).tobytes() == want.tobytes()
        assert DensityMatrix.pure(vec).matrix.tobytes() == np.outer(want, want.conj()).tobytes()

    @settings(max_examples=150)
    @given(
        st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1.0),
                 min_size=1, max_size=6),
        st.integers(-320, 300),
    )
    def test_matches_linalg_norm_at_every_scale(self, entries, exponent):
        v = np.array(entries, dtype=complex) * 10.0**exponent
        for w in (v, v[::2]):  # a strided view as well
            if np.any(w):
                assert _unit_vector(w).tobytes() == _unit_by_linalg_norm(w).tobytes()

    @pytest.mark.parametrize("vec", [
        [-0.0, 0.0, 1.0], [0.6, -0.0, -0.8], [-0.0, -0.0, -3.0], [0.1, 0.2, -0.3],
        [1e-320, -0.0, 0.0], [3e-310, -2.5e-315, 1e-320], [-1e300, 1e300, -0.0], [1.7e308, 1.7e308, -0.0],
    ])
    def test_normalized_stores_the_complex_path_s_bits(self, vec):
        # BlochVector.normalized scales through _unit_vector's complex path, which
        # divides by the real norm through its reciprocal and reads -0.0 as +0.0,
        # and stores that unit vector as its constructor does: a real path that
        # keeps -0.0, or skips the rescale of a subnormal or huge vector, differs.
        want = _unit_by_linalg_norm(vec).real
        assert BlochVector.normalized(vec).v.tobytes() == (want / math.sqrt(want.dot(want))).tobytes()

    @settings(max_examples=150)
    @given(
        st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0])), min_size=3, max_size=3),
        st.integers(-320, 300),
    )
    def test_normalized_stores_the_complex_path_s_bits_at_every_scale(self, entries, exponent):
        v = np.array(entries) * 10.0**exponent
        if np.any(v):
            want = _unit_by_linalg_norm(v).real
            assert BlochVector.normalized(v).v.tobytes() == (want / math.sqrt(want.dot(want))).tobytes()


def _window_check(g, tol):
    """Effect's checks on one matrix, written out in numpy, against the window
    [-tol, 1 + tol]: what Effect(g) raises when tol is PSD_TOL."""
    if not np.all(np.isfinite(g)):
        raise ValidationError("finite-entries")
    res = float(np.max(np.abs(g - g.conj().T)))
    if res > HERMITIAN_TOL:
        raise ValidationError("hermiticity", res)
    eigs = np.linalg.eigvalsh((g + g.conj().T) / 2)
    window = f"outside [{-tol!r}, {1.0 + tol!r}]"
    if eigs[0] < -tol:
        raise ValidationError("spectrum-in-[0,1]", detail=f"eigenvalue {float(eigs[0])!r} {window}")
    if eigs[-1] > 1.0 + tol:
        raise ValidationError("spectrum-in-[0,1]", detail=f"eigenvalue {float(eigs[-1])!r} {window}")


def _outcome(fn):
    """fn()'s value, or the type and text of the ValidationError it raises."""
    try:
        return fn()
    except ValidationError as exc:
        return type(exc), str(exc)


def _reference(stack, tol):
    """The outcome of the first matrix of stack that _window_check refuses, or None."""
    return next((r for r in (_outcome(lambda m=m: _window_check(m, tol)) for m in stack)
                 if isinstance(r, tuple)), None)


def _assert_as_reference(got, expected, stack):
    """got, the outcome of _check_effects on stack, against the reference's: the
    same error type and text, or on a pass eigvalsh of each raw matrix, bit for bit."""
    if expected is None:
        assert isinstance(got, np.ndarray), got
        assert got.tobytes() == np.stack([np.linalg.eigvalsh(m) for m in stack]).tobytes()
    else:
        assert isinstance(got, tuple) and got == expected


class TestWitnessCheck:
    """The batched check of a stack of effects against the same checks on
    each matrix, one by one."""

    @pytest.mark.parametrize(
        "defects",
        [{}, {0: "non-hermitian"}, {3: "non-hermitian"}, {0: "below"}, {3: "below"},
         {0: "above"}, {3: "above"}, {3: "nan"}, {1: "below", 2: "non-hermitian"},
         {1: "non-hermitian", 2: "above"}],
    )
    @pytest.mark.parametrize("tol", [1e-11, 1e-9])
    def test_raises_what_effect_raises(self, defects, tol):
        from unsharpjoint.operators import _check_effects

        rng = np.random.default_rng(8)
        stack = [_effect_matrix(int(s), rng.uniform(0, 1, size=3)) for s in rng.integers(0, 99, 4)]
        for where, bad in defects.items():
            m = stack[where].copy()
            if bad == "non-hermitian":
                m[0, 1] += 1e-9
            elif bad == "nan":
                m[1, 1] = math.nan
            else:
                w, v = np.linalg.eigh(m)
                if bad == "below":
                    w[0] = -2 * tol
                else:
                    w[-1] = 1 + 2 * tol
                m = (v * w) @ v.conj().T
            stack[where] = m

        expected = _reference(stack, tol)
        got = _outcome(lambda: _check_effects(np.stack(stack), tol))
        if expected is None:
            # The check returns the raw spectra; a witness keeps their smallest entry.
            assert float(np.min(got[:, 0])) == min(
                float(np.linalg.eigvalsh(g)[0]) for g in stack)
        else:
            assert got == expected

    @pytest.mark.parametrize("where", [0, 3], ids=["first", "last"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_entry_is_refused_first(self, value, entry, part, where, eigensolves):
        # The entries are read only when the residuals are not finite, which a
        # nan or inf entry always makes them: finite-entries, before any eigensolve.
        from unsharpjoint.operators import _check_effects

        g = np.stack([identity(2) / 2.0] * 4)
        getattr(g, part)[(where, *entry)] = value
        with pytest.raises(ValidationError, match=r"^finite-entries$"):
            _check_effects(g, PSD_TOL)
        assert eigensolves == []

    @pytest.mark.parametrize("part,entries", [("real", (1e308, -1e308)), ("imag", (1e308, 1e308))])
    def test_a_finite_stack_whose_residual_overflows_is_not_hermitian(self, part, entries):
        # m - m^H overflows to inf on finite entries: hermiticity, not finite-entries.
        from unsharpjoint.operators import _check_effects

        g = np.stack([identity(2) / 2.0] * 4)
        getattr(g, part)[3, 0, 1], getattr(g, part)[3, 1, 0] = entries
        with pytest.raises(ValidationError, match=r"^hermiticity") as exc:
            _check_effects(g, PSD_TOL)
        assert exc.value.residual == math.inf

    @staticmethod
    def _record(monkeypatch):
        """The shapes of every np.linalg.eigvalsh input, and the count of
        _hermitian_part calls made from operators, from now on."""
        from unsharpjoint import operators

        shapes, hermitized = [], []
        real_eigvalsh, real_hermitian_part = np.linalg.eigvalsh, operators._hermitian_part

        def eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        def hermitian_part(m):
            hermitized.append(np.shape(m))
            return real_hermitian_part(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(operators, "_hermitian_part", hermitian_part)
        return shapes, hermitized

    def test_a_package_witness_takes_one_raw_spectrum(self, monkeypatch):
        # At d = 64 the midpoint witness of two projectors is decided by the
        # raw (4, d, d) spectrum alone: at LAMBDA_OPT the gate passes on lam,
        # so the pair's top is never solved, and no hermitized copy is made.
        from unsharpjoint import LAMBDA_OPT

        d, rng = 64, np.random.default_rng(64)

        def projector():
            u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0][:, :d // 2]
            return Projector(u @ u.conj().T, rank=d // 2)

        p, q = projector(), projector()
        shapes, hermitized = self._record(monkeypatch)
        rep = pvm_joint_observable(p, q, LAMBDA_OPT)
        assert rep.feasible == "yes"
        assert shapes == [(4, d, d)]
        assert hermitized == []
        assert rep.min_eigenvalue == min(float(np.linalg.eigvalsh(e.matrix)[0])
                                         for e in rep.witness.effects)

    @pytest.mark.parametrize("plant", ["residual-below", "residual-above", "low-inside",
                                       "low-outside", "high-inside", "high-outside"])
    @pytest.mark.parametrize("tol", [1e-11, 1e-9])
    def test_the_edges_fall_back_to_the_hermitized_spectrum(self, plant, tol, monkeypatch):
        # A residual near HERMITIAN_TOL on a stack with spectra touching 0 and 1
        # (a margin d r / 2 past the window's room), or an eigenvalue within
        # the margin of either edge, sends the check to the hermitized
        # spectra, which give the verdict of the per-matrix reference.
        from unsharpjoint.operators import _check_effects

        d, eps = 32, np.finfo(float).eps  # d r / 2 passes PSD_TOL at r = 0.9 HERMITIAN_TOL
        rng = np.random.default_rng(17)
        spectra = rng.uniform(0.2, 0.8, size=(3, d))
        spectra[:, 0], spectra[:, -1] = 0.0, 1.0
        stack = [_effect_matrix(int(s), w) for s, w in zip(rng.integers(0, 99, 3), spectra)]
        if plant.startswith("residual"):
            r = HERMITIAN_TOL * (0.9 if plant == "residual-below" else 1.1)
            stack[1][2, 5] += r
        else:
            margin = d * (float(max(np.abs(g - g.conj().T).max() for g in stack)) / 2 + 16 * eps)
            edge, sign = (-tol, 1.0) if plant.startswith("low") else (1.0 + tol, -1.0)
            w, v = np.linalg.eigh(stack[2])
            w[0 if sign > 0 else -1] = edge + sign * margin / 2 * (1 if plant.endswith("inside") else -1)
            stack[2] = (v * w) @ v.conj().T
        expected = _reference(stack, tol)
        assert (expected is None) == (plant in {"residual-below", "low-inside", "high-inside"})
        shapes, hermitized = self._record(monkeypatch)
        got = _outcome(lambda: _check_effects(np.stack(stack), tol))
        assert shapes == [(3, d, d), (3, d, d)]
        assert hermitized == [(3, d, d)]
        _assert_as_reference(got, expected, stack)

    @seed(1986)
    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 16),
           st.sampled_from([1e-11, 1e-9]), st.floats(0.0, 1.0), st.data())
    def test_matches_the_per_matrix_check(self, rng_seed, k, d, tol, residual_share, data):
        # Random (k, d, d) stacks with extreme eigenvalues planted within
        # +-d (r + 32 eps) of -tol and 1 + tol, twice the margin, and a residual
        # r up to HERMITIAN_TOL planted in the lower triangle of one matrix
        # along the eigenvector of a planted extreme eigenvalue, where it moves
        # the raw spectrum off the hermitized one the most: the verdict is the
        # per-matrix reference's, error text included, and a pass returns the
        # raw spectra bit for bit.
        from unsharpjoint.operators import _check_effects

        rng = np.random.default_rng(rng_seed)
        r = residual_share * HERMITIAN_TOL
        span = d * (r + 32 * np.finfo(float).eps)
        target, edge = data.draw(st.integers(0, k - 1)), data.draw(st.sampled_from([0, -1]))
        stack = []
        for i in range(k):
            w = np.sort(rng.uniform(0.0, 1.0, size=d))
            if data.draw(st.booleans()) or (i, edge) == (target, 0):
                w[0] = -tol + span * data.draw(st.floats(-1.0, 1.0))
            if data.draw(st.booleans()) or (i, edge) == (target, -1):
                w[-1] = 1.0 + tol + span * data.draw(st.floats(-1.0, 1.0))
            stack.append(_effect_matrix(int(rng.integers(0, 2**32)), w))
        m = stack[target]
        v = np.linalg.eigh(m)[1][:, edge]
        lower = np.tril(np.outer(v, v.conj()), -1)
        if d == 1:
            m[0, 0] += 0.5j * r
        else:
            m += data.draw(st.sampled_from([-r, r])) * lower / np.abs(lower).max()
        _assert_as_reference(_outcome(lambda: _check_effects(np.stack(stack), tol)),
                             _reference(stack, tol), stack)

    def test_a_yes_keeps_the_stack_it_was_given(self):
        # Four random effects normalized to sum to I (G_i = S^-1/2 E_i S^-1/2):
        # the witness holds exactly the bytes passed in, read-only, and the
        # smallest raw eigenvalue.
        from unsharpjoint.joint import _yes

        rng = np.random.default_rng(8)
        e = np.stack([_effect_matrix(int(s), rng.uniform(0, 1, size=3))
                      for s in rng.integers(0, 99, 4)])
        w, v = np.linalg.eigh(e.sum(axis=0))
        root = (v / np.sqrt(w)) @ v.conj().T
        g = root @ e @ root
        before = [m.tobytes() for m in g]
        o1 = DichotomicObservable.from_yes_effect(g[0] + g[1])
        o2 = DichotomicObservable.from_yes_effect(g[0] + g[2])
        rep = _yes(g, 1e-9, o1, o2, 7)
        assert (rep.feasible, rep.iterations) == ("yes", 7)
        assert [x.matrix.tobytes() for x in rep.witness.effects] == before
        assert all(not x.matrix.flags.writeable for x in rep.witness.effects)
        assert rep.min_eigenvalue == min(float(np.linalg.eigvalsh(m)[0]) for m in g)


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
            {"dim": 1, "re": [[10**400]], "im": [[0]]},
            {"dim": 1, "re": [[1]], "im": [[-(10**400)]]},
            {"dim": 1, "re": [["1"]], "im": [[0]]},
            {"dim": 2, "re": [[" 1 ", 0], [0, 1]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [["1", 2**70], [0, 1]], "im": [[0, 0], [0, 0]]},
            {"dim": True, "re": [[1]], "im": [[0]]},
            {"dim": 1, "re": [[True]], "im": [[0]]},
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.5]], "im": [[0.0, False], [0.0, 0.0]]},
            {"dim": 2, "re": np.eye(2, dtype=bool), "im": np.zeros((2, 2))},
        ],
    )
    def test_malformed_operator_rejected(self, obj):
        with pytest.raises(ValidationError, match="operator-json"):
            matrix_from_json(obj)

    def test_array_entries_are_accepted(self):
        m = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, 0.5]])
        back = matrix_from_json({"dim": 2, "re": m.real, "im": m.imag})
        assert np.array_equal(back, m)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (8, 2, 2)])
def test_hermitian_part_keeps_every_bit_of_the_sum_of_halves(shape):
    # m/2 + (m/2)^H halves once; conj(m/2) is exactly conj(m)/2, so every bit
    # of m/2 + m^H/2 is kept, subnormal and near-overflow entries included.
    rng = np.random.default_rng(5)
    re, im = rng.choice([-1.0, 1.0], size=(2, *shape)) * 10.0 ** rng.uniform(-320, 308, size=(2, *shape))
    m = re + 1j * im
    want = m / 2 + m.conj().swapaxes(-1, -2) / 2
    assert np.array_equal(_hermitian_part(m).view(np.uint64), want.view(np.uint64))
