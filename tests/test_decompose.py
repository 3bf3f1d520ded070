"""Block decomposition of projector pairs, dilation, compression."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharpjoint import (
    Block,
    DichotomicObservable,
    Effect,
    Projector,
    ValidationError,
    compress,
    neumark_dilate,
    two_projector_blocks,
)
from unsharpjoint import decompose
from unsharpjoint.decompose import BLOCK_RESIDUAL_TOL, CLUSTER_TOL
from unsharpjoint.operators import PSD_TOL, _frozen, _max_abs, identity

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _ray(vec):
    """The rank-1 projector onto the ray of a nonzero vector."""
    u = np.array(vec, dtype=complex)
    u /= np.linalg.norm(u)
    return Projector.from_matrix(np.outer(u, u.conj()))


def _random_projector(rng, dim, rank):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return Projector(cols @ cols.conj().T, rank=rank)


def _planted_pair(rng, dim, cos_sin, both=0, p_only=0, q_only=0):
    """p, q on C^dim with a 2-dim block at each (cos, sin) and 1-dim blocks.

    Block i spans Haar columns e, f: p holds e, q holds cos e + sin f.
    Then `both` directions in ran p and ran q, `p_only` in ran p only,
    `q_only` in ran q only; the rest of C^dim is in neither.
    """
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(g)
    cols = iter(basis.T)
    p_cols, q_cols = [], []
    for cos, sin in cos_sin:
        e, f = next(cols), next(cols)
        p_cols.append(e)
        q_cols.append(cos * e + sin * f)
    for _ in range(both):
        e = next(cols)
        p_cols.append(e)
        q_cols.append(e)
    p_cols += [next(cols) for _ in range(p_only)]
    q_cols += [next(cols) for _ in range(q_only)]
    p_m, q_m = (np.column_stack(c) if c else np.zeros((dim, 0)) for c in (p_cols, q_cols))
    return (
        Projector(p_m @ p_m.conj().T, rank=len(p_cols)),
        Projector(q_m @ q_m.conj().T, rank=len(q_cols)),
    )


def _off_block_mask(dec):
    """True at the entries of a d x d matrix outside dec's blocks, from the
    blocks' dims alone."""
    d = len(dec.unitary)
    mask = np.ones((d, d), dtype=bool)
    offset = 0
    for b in dec.blocks:
        mask[offset:offset + b.dim, offset:offset + b.dim] = False
        offset += b.dim
    return mask


def _block_residuals(dec, m):
    """The max-abs entry of U^H m U outside dec's blocks, and the max-abs
    error of rebuilding m from its block restrictions, U blockdiag U^H."""
    u, mask = dec.unitary, _off_block_mask(dec)
    conj = u.conj().T @ m @ u
    off = _max_abs(conj[mask])
    conj[mask] = 0.0
    return off, _max_abs(u @ conj @ u.conj().T - m)


def _assert_planted_blocks(dec, p, q, cos_sin):
    """Block bookkeeping, residuals, unitarity and the planted overlaps."""
    d = p.dim
    assert sum(b.dim for b in dec.blocks) == d
    assert sum(b.rank_p for b in dec.blocks) == p.rank
    assert sum(b.rank_q for b in dec.blocks) == q.rank
    for m in (p.matrix, q.matrix):
        assert max(_block_residuals(dec, m)) <= 1e-9
    u = dec.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10
    # An angle with sin*cos at most CLUSTER_TOL snaps to two 1-dim blocks.
    want = sorted((cos for cos, sin in cos_sin if cos * sin > CLUSTER_TOL), reverse=True)
    got = [b.overlap for b in dec.blocks if b.dim == 2]
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def _random_effect(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    eigs = rng.uniform(0, 1, size=dim)
    return Effect((q * eigs) @ q.conj().T)


class TestTwoProjectorBlocks:
    def test_identical_rank_one_projectors(self):
        p = _ray([1, 0])
        dec = two_projector_blocks(p, p)
        shapes = sorted((b.dim, b.rank_p, b.rank_q) for b in dec.blocks)
        assert shapes == [(1, 0, 0), (1, 1, 1)]
        overlaps = {(b.rank_p, b.rank_q): b.overlap for b in dec.blocks}
        assert overlaps[(1, 1)] == 1.0
        assert overlaps[(0, 0)] == 0.0

    def test_z_plus_pair(self):
        # |0> against |+>: a single 2-dim block with overlap 1/sqrt(2),
        # the inner product computed directly.
        p = _ray([1, 0])
        q = _ray([1, 1])
        dec = two_projector_blocks(p, q)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dim, blk.rank_p, blk.rank_q) == (2, 1, 1)
        assert blk.overlap == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_random_pair_in_c8(self):
        rng = np.random.default_rng(61)
        p = _random_projector(rng, 8, 3)
        q = _random_projector(rng, 8, 4)
        dec = two_projector_blocks(p, q)
        for m in (p.matrix, q.matrix):
            assert max(_block_residuals(dec, m)) <= 1e-9
        assert all(b.dim <= 2 for b in dec.blocks)

    def test_rank_bookkeeping(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            d = int(rng.integers(2, 10))
            rp = int(rng.integers(1, d))
            rq = int(rng.integers(1, d))
            p = _random_projector(rng, d, rp)
            q = _random_projector(rng, d, rq)
            dec = two_projector_blocks(p, q)
            assert sum(b.rank_p for b in dec.blocks) == rp
            assert sum(b.rank_q for b in dec.blocks) == rq
            assert sum(b.dim for b in dec.blocks) == d

    def test_block_ordering(self):
        # Generic blocks come first in descending overlap, then aligned,
        # then the null blocks.
        rng = np.random.default_rng(71)
        p = _random_projector(rng, 10, 4)
        q = _random_projector(rng, 10, 5)
        dec = two_projector_blocks(p, q)
        phase = 0  # 0: generic, 1: aligned, 2: null
        last_overlap = 1.0
        for b in dec.blocks:
            if b.dim == 2:
                assert phase == 0
                assert b.overlap <= last_overlap + 1e-15
                last_overlap = b.overlap
            elif (b.rank_p, b.rank_q) == (1, 1):
                assert phase <= 1
                phase = 1
            else:
                phase = 2

    def test_every_block_species_at_once(self):
        # ran p = span{e0,e1,e2}, ran q = span{e0,(e1+e3)/sqrt2,e4}: one
        # aligned direction, one generic angle, and all three null kinds.
        d = 6
        e = np.eye(d, dtype=complex)
        p_cols = np.column_stack([e[:, 0], e[:, 1], e[:, 2]])
        mixed = (e[:, 1] + e[:, 3]) / math.sqrt(2)
        q_cols = np.column_stack([e[:, 0], mixed, e[:, 4]])
        p = Projector(p_cols @ p_cols.conj().T, rank=3)
        q = Projector(q_cols @ q_cols.conj().T, rank=3)
        dec = two_projector_blocks(p, q)
        kinds = sorted(
            (b.dim, b.rank_p, b.rank_q, round(b.overlap, 6)) for b in dec.blocks
        )
        assert kinds == sorted(
            [
                (2, 1, 1, 0.707107),
                (1, 1, 1, 1.0),
                (1, 1, 0, 0.0),
                (1, 0, 1, 0.0),
                (1, 0, 0, 0.0),
            ]
        )
        for m in (p.matrix, q.matrix):
            assert _block_residuals(dec, m)[0] <= 1e-12

    def test_commuting_projectors_give_1d_blocks(self):
        p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        q = Projector.from_matrix(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        dec = two_projector_blocks(p, q)
        assert all(b.dim == 1 for b in dec.blocks)
        kinds = sorted((b.rank_p, b.rank_q) for b in dec.blocks)
        assert kinds == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_dimension_mismatch(self):
        p = _ray([1, 0])
        q = _ray([1, 0, 0])
        with pytest.raises(ValidationError, match=r"^same-dimension: incompatible dimensions \(2, 3\)$"):
            two_projector_blocks(p, q)

    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(73)
        p = _random_projector(rng, 6, 2)
        q = _random_projector(rng, 6, 3)
        dec = two_projector_blocks(p, q)
        u = dec.unitary
        assert np.max(np.abs(u.conj().T @ u - identity(6))) <= 1e-10


class TestNearlyAlignedBlocks:
    # d = 8, rank 3: angles {eps, 0.7, 1.2}, or {eps, pi/2 - eps, 1.2}
    # with both ends in one pair; 50 samples a row.
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("both_ends", [False, True], ids=["eps", "eps-and-complement"])
    def test_eps_table_row(self, eps, both_ends):
        rng = np.random.default_rng(0)
        second = (math.sin(eps), math.cos(eps)) if both_ends else (math.cos(0.7), math.sin(0.7))
        cos_sin = [(math.cos(eps), math.sin(eps)), second, (math.cos(1.2), math.sin(1.2))]
        for _ in range(50):
            p, q = _planted_pair(rng, 8, cos_sin)
            _assert_planted_blocks(two_projector_blocks(p, q), p, q, cos_sin)

    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-9])
    def test_two_close_angles(self, gap):
        # The two compressions' eigensolves mix the vectors of the two
        # angles independently; the pairing must still line them up.
        rng = np.random.default_rng(1)
        cos_sin = [(math.cos(a), math.sin(a)) for a in (0.7, 0.7 + gap, 1.2)]
        for _ in range(20):
            p, q = _planted_pair(rng, 8, cos_sin, both=1)
            _assert_planted_blocks(two_projector_blocks(p, q), p, q, cos_sin)

    def test_tiny_angle_snaps_to_one_dim_blocks(self):
        rng = np.random.default_rng(2)
        p, q = _planted_pair(rng, 4, [(1.0, 1e-12)], q_only=1)
        dec = two_projector_blocks(p, q)
        assert [(b.dim, b.rank_p, b.rank_q, b.overlap) for b in dec.blocks] == [
            (1, 1, 1, 1.0), (1, 0, 1, 0.0), (1, 0, 0, 0.0), (1, 0, 0, 0.0)
        ]
        assert _block_residuals(dec, q.matrix)[0] <= 1e-11

    @settings(max_examples=200)
    @given(
        dim=st.integers(2, 16),
        log_angles=st.lists(st.floats(math.log(1e-12), math.log(math.pi / 2)), max_size=8),
        near_right=st.lists(st.booleans(), min_size=8, max_size=8),
        species=st.lists(st.integers(0, 3), max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_angles_round_trip(self, dim, log_angles, near_right, species, seed):
        # Angles log-uniform in [1e-12, pi/2]; a flagged angle a is planted
        # as pi/2 - a, so one pair can hold both ends.  The other directions
        # take random species, so rank q > rank p occurs.
        log_angles = log_angles[: dim // 2]
        cos_sin = [
            (math.sin(a), math.cos(a)) if flip else (math.cos(a), math.sin(a))
            for a, flip in zip(map(math.exp, log_angles), near_right)
        ]
        species = (species + [0] * dim)[: dim - 2 * len(cos_sin)]
        p, q = _planted_pair(
            np.random.default_rng(seed), dim, cos_sin,
            both=species.count(1), p_only=species.count(2), q_only=species.count(3),
        )
        _assert_planted_blocks(two_projector_blocks(p, q), p, q, cos_sin)


def _pinned_pairs():
    """Seeded projector pairs past the cli's d <= 16, and the edge pairs."""
    rng = np.random.default_rng(3535)
    eps = 1e-8
    zero, eye = np.zeros((4, 4)), np.eye(4)
    third = _random_projector(rng, 6, 3)
    return [
        (_random_projector(rng, 32, 11), _random_projector(rng, 32, 20)),
        (_random_projector(rng, 64, 40), _random_projector(rng, 64, 23)),
        _planted_pair(rng, 16, [(math.cos(eps), math.sin(eps)), (math.cos(0.7), math.sin(0.7))],
                      both=1, p_only=2, q_only=3),
        (Projector([[1.0]], rank=1), Projector([[0.0]], rank=0)),
        (Projector(zero, rank=0), _random_projector(rng, 4, 2)),
        (Projector(eye, rank=4), _random_projector(rng, 4, 1)),
        (third, third),
    ]


class TestPinnedDecompositions:
    # sha256 over every pair's unitary bytes and (dim, rank_p, rank_q, overlap)
    # tuples: the bytes of the one-pass assembly, equal to those of the
    # column stack and the validated Block values it replaced.
    PINNED = "2b1ad95f9e65b689d99c71291131590d52f75706f225705af7c7cb73a993a5e5"

    def test_unitaries_and_blocks_are_pinned(self):
        h = hashlib.sha256()
        for p, q in _pinned_pairs():
            dec = two_projector_blocks(p, q)
            h.update(dec.unitary.tobytes())
            h.update(repr([(b.dim, b.rank_p, b.rank_q, b.overlap.hex()) for b in dec.blocks]).encode())
        assert h.hexdigest() == self.PINNED

    def test_returned_decompositions_are_full_values(self):
        for p, q in _pinned_pairs():
            _assert_full_values(two_projector_blocks(p, q), p, q)


def _assert_full_values(dec, p, q):
    """Block and BlockDecomposition check nothing: the builder's output must
    hold the invariants their docstrings state by itself."""
    assert not dec.unitary.flags.writeable
    assert type(dec.blocks) is tuple
    for b in dec.blocks:
        assert type(b) is Block
        assert type(b.dim) is int and b.dim in (1, 2)
        for rank in (b.rank_p, b.rank_q):
            assert type(rank) is int and 0 <= rank <= b.dim
        assert type(b.overlap) is float and math.isfinite(b.overlap)
        if b.dim == 2:
            # Not capped at 1: rounding can put a cosine a few ulps past it.
            assert (b.rank_p, b.rank_q) == (1, 1)
            assert 0.0 < b.overlap <= 1.0 + 4 * np.finfo(float).eps
        else:
            assert b.overlap == (1.0 if (b.rank_p, b.rank_q) == (1, 1) else 0.0)
    assert sum(b.dim for b in dec.blocks) == p.dim
    assert sum(b.rank_p for b in dec.blocks) == p.rank
    assert sum(b.rank_q for b in dec.blocks) == q.rank
    for m in (p.matrix, q.matrix):
        assert max(_block_residuals(dec, m)) <= 1e-9


def _d1(rank):
    return Projector([[float(rank)]], rank=rank)


def _angle_rays(theta):
    return _ray([1, 0]), _ray([math.cos(theta), math.sin(theta)])


def _complement(p):
    return Projector(identity(p.dim) - p.matrix, rank=p.dim - p.rank)


# Pairs of every block species and edge, each built by the one builder.
_SPECIES = {
    "d1-ran-ran": lambda rng: (_d1(1), _d1(1)),
    "d1-ran-ker": lambda rng: (_d1(1), _d1(0)),
    "d1-ker-ran": lambda rng: (_d1(0), _d1(1)),
    "d1-ker-ker": lambda rng: (_d1(0), _d1(0)),
    "equal-rays": lambda rng: _angle_rays(0.0),
    "orthogonal-rays": lambda rng: _angle_rays(math.pi / 2),
    "z-plus": lambda rng: _angle_rays(math.pi / 4),
    "tiny-angle": lambda rng: _angle_rays(1e-9),
    "near-right-angle": lambda rng: _angle_rays(math.pi / 2 - 1e-9),
    "p-zero": lambda rng: (Projector(np.zeros((5, 5)), rank=0), _random_projector(rng, 5, 2)),
    "p-identity": lambda rng: (Projector(np.eye(5), rank=5), _random_projector(rng, 5, 3)),
    "p-equals-q": lambda rng: (lambda p: (p, p))(_random_projector(rng, 6, 3)),
    "p-and-complement": lambda rng: (lambda p: (p, _complement(p)))(_random_projector(rng, 6, 2)),
    "commuting-random-basis": lambda rng: _commuting_pair(),
    "every-species": lambda rng: _planted_pair(rng, 10, [(math.cos(0.7), math.sin(0.7))],
                                               both=2, p_only=2, q_only=2),
    "close-angles": lambda rng: _planted_pair(rng, 8, [(math.cos(0.7), math.sin(0.7)),
                                                       (math.cos(0.7 + 1e-8), math.sin(0.7 + 1e-8))]),
    "random-c8": lambda rng: (_random_projector(rng, 8, 3), _random_projector(rng, 8, 5)),
    "random-c64": lambda rng: (_random_projector(rng, 64, 30), _random_projector(rng, 64, 41)),
}


class TestBuilderInvariants:
    @pytest.mark.parametrize("species", _SPECIES)
    def test_blocks_hold_the_record_invariants(self, species):
        # The record checks that once guarded hand-built values now bind
        # two_projector_blocks alone, on every block species and edge pair.
        p, q = _SPECIES[species](np.random.default_rng(4040))
        _assert_full_values(two_projector_blocks(p, q), p, q)

    @pytest.mark.parametrize("field", ["dim", "rank_p", "rank_q", "overlap", "unitary", "blocks"])
    def test_returned_records_are_frozen(self, field):
        dec = two_projector_blocks(*_angle_rays(math.pi / 4))
        record = dec if field in ("unitary", "blocks") else dec.blocks[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def _checked_residuals(monkeypatch, p, q):
    """two_projector_blocks(p, q) and the residual of each check it ran, by invariant."""
    seen = {}
    real = decompose._within

    def within(invariant, residual, tol, detail=""):
        seen[invariant] = residual
        real(invariant, residual, tol, detail)

    monkeypatch.setattr(decompose, "_within", within)
    return two_projector_blocks(p, q), seen


def _commuting_pair():
    rng = np.random.default_rng(38)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    p, q = (u @ np.diag(diag) @ u.conj().T for diag in ([1.0, 1, 0, 0, 1], [1.0, 0, 1, 0, 1]))
    return Projector(p, rank=3), Projector(q, rank=3)


class TestBlockChecks:
    @pytest.mark.parametrize("index", range(len(_pinned_pairs()) + 1))
    def test_residuals_are_those_of_the_mask(self, monkeypatch, index):
        # The pinned pairs hold d = 1, P = Q and trivial pairs; the last is a
        # commuting pair in a random basis, all 1-dim blocks.
        p, q = (_pinned_pairs() + [_commuting_pair()])[index]
        dec, seen = _checked_residuals(monkeypatch, p, q)
        u = dec.unitary
        conj = u.conj().T @ np.stack([p.matrix, q.matrix]) @ u
        assert seen["block-diagonality"] == _max_abs(conj[:, _off_block_mask(dec)])
        assert seen["unitary"] == _max_abs(u.conj().T @ u - np.eye(p.dim))

    @pytest.mark.parametrize("planted", [5e-10, 1e-8])
    def test_a_planted_off_block_entry_is_refused_past_the_tolerance(self, monkeypatch, planted):
        # q couples ran p and ran q (value 1) to ker p and ran q (value 0)
        # by `planted`: no block pairs them, so it stays an off-block entry.
        # Past HERMITIAN_TOL the entry leaves q no projector: it is built unchecked.
        p = Projector(np.diag([1.0, 1.0, 0.0, 0.0]), rank=2)
        qm = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        qm[0, 2] = qm[2, 0] = planted
        q = _frozen(Projector, matrix=qm, rank=2)
        if planted <= BLOCK_RESIDUAL_TOL:
            dec, seen = _checked_residuals(monkeypatch, p, q)
            assert [b.dim for b in dec.blocks] == [1, 1, 1, 1]
            assert seen["block-diagonality"] == planted
        else:
            with pytest.raises(ValidationError, match=r"^block-diagonality") as exc:
                two_projector_blocks(p, q)
            assert exc.value.residual == planted


class TestNeumarkDilate:
    def test_sharp_effect_dilates_cleanly(self):
        obs = DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]).astype(complex))
        dil = neumark_dilate(obs)
        back = compress(dil.as_effect())
        np.testing.assert_allclose(back.matrix, obs.yes_effect.matrix, atol=1e-15)

    def test_half_identity_closed_form(self):
        # A = I/2 dilates to I_2 tensor |+><+| (basis independent), a
        # rank-2 projector whose ancilla-0 sector is I/2.
        obs = DichotomicObservable.from_yes_effect(0.5 * identity(2))
        dil = neumark_dilate(obs)
        assert dil.rank == 2
        expected = np.kron(identity(2), np.full((2, 2), 0.5))
        np.testing.assert_allclose(dil.matrix, expected, atol=1e-12)
        back = compress(dil.as_effect())
        np.testing.assert_allclose(back.matrix, 0.5 * identity(2), atol=1e-12)

    def test_roundtrip_random_qubit_effects(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            e = _random_effect(rng, 2)
            dil = neumark_dilate(DichotomicObservable.from_yes_effect(e))
            back = compress(dil.as_effect())
            assert np.max(np.abs(back.matrix - e.matrix)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_roundtrip_dimensions(self, dim):
        rng = np.random.default_rng(83 + dim)
        for _ in range(10):
            e = _random_effect(rng, dim)
            dil = neumark_dilate(DichotomicObservable.from_yes_effect(e))
            back = compress(dil.as_effect())
            assert np.max(np.abs(back.matrix - e.matrix)) <= 1e-12

    @pytest.mark.parametrize("eigs, clipped", [([1e-3, 0.5, 1 - 1e-3], 0.0),
                                               ([-5e-10, 0.5, 1 + 5e-10], 5e-10)],
                             ids=["inside", "edges"])
    def test_roundtrip_clips_the_window_edges(self, eigs, clipped):
        # The dilation clips A's eigenvalues to [0, 1]: an effect inside
        # [0, 1] comes back to 1e-12, one in the window's edges comes back
        # clipped, off by its distance to [0, 1], which PSD_TOL bounds.
        e = Effect(np.diag(eigs))
        back = compress(neumark_dilate(DichotomicObservable.from_yes_effect(e)).as_effect())
        assert _max_abs(back.matrix - np.diag(np.clip(eigs, 0.0, 1.0))) <= 1e-12
        assert abs(_max_abs(back.matrix - e.matrix) - clipped) <= 1e-12
        assert clipped <= PSD_TOL


class TestCompress:
    def test_identity_compresses_to_identity(self):
        e = compress(Effect(identity(4)))
        np.testing.assert_array_equal(e.matrix, identity(2))

    def test_orthogonal_ancilla_sector_vanishes(self):
        g = np.kron(0.5 * (identity(2) + PAULI_X), np.diag([0.0, 1.0]))
        e = compress(Effect(g))
        np.testing.assert_array_equal(e.matrix, np.zeros((2, 2)))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError, match=r"^even-dimension: dimension 3 is not of the form 2\*d$"):
            compress(Effect(identity(3)))

    def test_effects_map_to_effects(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            d = 2 * int(rng.integers(1, 5))
            e = _random_effect(rng, d)
            out = compress(e)  # Effect validation runs inside
            assert out.dim == d // 2
