"""Operator types, their validation and the JSON operator format."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharpjoint import (
    BlochVector,
    BlockDecomposition,
    DensityMatrix,
    DichotomicObservable,
    Effect,
    JointObservable,
    Projector,
    ValidationError,
    box_chsh,
    check_joint,
    chsh,
    feasibility_oracle,
    matrix_from_json,
    matrix_to_json,
    mean_value,
    neumark_dilate,
    povm_joint_observable,
    projector_onto,
    pr_box,
    pvm_joint_observable,
    singlet,
    smear,
    smeared_chsh,
    two_projector_blocks,
)
from unsharpjoint.bell import smeared_chsh_values
from unsharpjoint.operators import HERMITIAN_TOL, PAULI_Z, identity

_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Effect(_EMPTY),
        lambda: DichotomicObservable.from_yes_effect(_EMPTY),
        lambda: DensityMatrix(_EMPTY),
        lambda: DensityMatrix.maximally_mixed(0),
        lambda: Projector(_EMPTY, 0),
        lambda: Projector.from_matrix(_EMPTY),
        lambda: pvm_joint_observable(Projector(_EMPTY, 0), Projector(_EMPTY, 0), 0.5),
        lambda: two_projector_blocks(Projector(_EMPTY, 0), Projector(_EMPTY, 0)),
        lambda: matrix_to_json(_EMPTY),
    ],
    ids=["effect", "observable", "density", "maximally-mixed", "projector",
         "projector-from-matrix", "pvm", "blocks", "json"],
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


@pytest.mark.parametrize("dim", [-1, 2.5, True, "2"])
def test_maximally_mixed_needs_an_integer_dim(dim):
    # -1 used to end in numpy's ValueError and 2.5 in a TypeError; True made I_1.
    with pytest.raises(ValidationError, match=rf"^square-matrix: got {re.escape(repr(dim))}$"):
        DensityMatrix.maximally_mixed(dim)


_OBS = DichotomicObservable.from_yes_effect(np.diag([0.3, 0.6]))
_RAW = 0.5 * np.eye(2)
_RAW4 = 0.25 * np.eye(4)
_P = projector_onto([1, 0])


@pytest.mark.parametrize(
    "call, invariant",
    [
        (lambda: smear(_RAW, 0.5), "dichotomic-observable"),
        (lambda: neumark_dilate(_RAW), "dichotomic-observable"),
        (lambda: povm_joint_observable(_OBS, _RAW, 0.5), "dichotomic-observable"),
        (lambda: feasibility_oracle(_RAW, _OBS), "dichotomic-observable"),
        (lambda: mean_value(_RAW, DensityMatrix.maximally_mixed(2)), "dichotomic-observable"),
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
        (lambda: BlockDecomposition(np.eye(2), (_RAW,)), "block"),
    ],
    ids=["smear", "neumark-dilate", "povm-joint-observable", "feasibility-oracle", "mean-value",
         "chsh", "smeared-chsh", "smeared-chsh-values", "mean-value-state", "chsh-state",
         "smeared-chsh-state", "smeared-chsh-values-state", "pvm-joint-observable",
         "two-projector-blocks", "check-joint", "check-joint-observable", "box-chsh",
         "dichotomic-observable", "joint-observable", "block-decomposition"],
)
def test_raw_matrix_for_an_observable_is_rejected(call, invariant):
    # Each used to end in a bare AttributeError: 'numpy.ndarray' object has
    # no attribute 'yes_effect' (or 'dim', 'difference', 'matrix' or 'correlators').
    # A raw matrix is refused in place of any typed argument, not only an observable.
    with pytest.raises(ValidationError, match=f"^{invariant}: got ndarray$"):
        call()


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
        p = projector_onto([1, 1j])
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

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_haar_projectors_pass_and_are_effects(self, d):
        rng = np.random.default_rng(d)
        for rank in range(0, d + 1, max(1, d // 4)):
            q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            p = Projector.from_matrix(q[:, :rank] @ q[:, :rank].conj().T)
            assert p.rank == rank
            Effect(p.as_effect().matrix)


class TestIdentity:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_read_only_identity_per_dimension(self, d):
        eye = identity(d)
        assert identity(d) is eye
        assert np.array_equal(eye, np.eye(d)) and eye.dtype == complex
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    def test_maximally_mixed_caches_no_identity(self):
        before = identity.cache_info()
        rho = DensityMatrix.maximally_mixed(300)
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
    @pytest.mark.parametrize("build", [DensityMatrix.pure, projector_onto], ids=["pure", "projector"])
    def test_pure_rejects_a_bad_vector(self, build, vec, invariant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=invariant):
                build(vec)

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
            p = projector_onto(vec)
        DensityMatrix(rho.matrix)
        u = np.asarray(ray, dtype=complex) / np.linalg.norm(ray)
        np.testing.assert_allclose(rho.matrix, np.outer(u, u.conj()), atol=1e-15)
        assert p.rank == 1 and p.matrix.tobytes() == rho.matrix.tobytes()

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
    projectors, pure states) pass every public check when rebuilt."""

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
        p = b.projector()
        Projector(p.matrix, rank=p.rank)
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

        def outcome(fn):
            try:
                return fn()
            except ValidationError as exc:
                return type(exc), str(exc)

        expected = next((r for r in (outcome(lambda g=g: _window_check(g, tol)) for g in stack)
                         if isinstance(r, tuple)), None)
        got = outcome(lambda: _check_effects(np.stack(stack), tol, raw=True))
        if expected is None:
            # The raw spectra follow the hermitized ones; a witness keeps their smallest entry.
            assert float(np.min(got[len(stack):, 0])) == min(
                float(np.linalg.eigvalsh(g)[0]) for g in stack)
        else:
            assert got == expected

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
        ],
    )
    def test_malformed_operator_rejected(self, obj):
        with pytest.raises(ValidationError, match="operator-json"):
            matrix_from_json(obj)
