"""Simultaneous block reduction of two projectors, dilation, compression.

Two Hermitian projectors p, q on C^d can be brought, by one unitary change
of basis, to a direct sum of blocks of dimension one or two: the classical
principal-angle (Jordan/Halmos) structure.  One-dimensional blocks carry
the four trivial intersections (ran p meets ran q, ran p meets ker q, and
so on); each two-dimensional block carries a pair of rank-1 projectors at
a nontrivial angle.

The construction here goes through the compression of q to ran p:
diagonalize that compression; an eigenvalue c strictly inside (0, 1) seeds
a two-dimensional block whose two rank-1 ranges have overlap sqrt(c);
eigenvalue 1 gives an aligned direction, eigenvalue 0 a direction of
ran p inside ker q.  The partner column of a generic block is built
explicitly from q's action, which sidesteps any eigenvector matching
between degenerate clusters.  Whatever remains is q-invariant inside
ker p and splits by a second small eigenproblem.

The same module hosts the 2-level-ancilla dilation of a dichotomic POVM to
a projective measurement and the compression back to the system (fixed
convention: system tensor ancilla, ancilla state = index 0 of the last
factor).  No joint-measurability decision uses this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotEffect,
    OddDimension,
    ValidationError,
)
from .operators import (
    DichotomicObservable,
    Effect,
    Projector,
    square_matrix,
    validate_effect,
)

CLUSTER_TOL = 1e-10          # snap compression eigenvalues to {0, 1}
BLOCK_RESIDUAL_TOL = 1e-9    # off-block mass of the conjugated projectors
UNITARITY_TOL = 1e-10

ANCILLA_CONVENTION = "system-tensor-ancilla; ancilla state = index 0 of last factor"


@dataclass(frozen=True)
class Block:
    """One invariant subspace of the pair (p, q).

    dim           -- 1 or 2
    basis_columns -- indices of this block's columns in the adapted unitary
    rank_p/rank_q -- rank of each projector restricted to the block
    overlap       -- |<chi_p|chi_q>| between the rank-1 ranges when both
                     ranks are 1 (strictly inside (0,1) for dim-2 blocks);
                     for dim-1 blocks it is 1.0 when both ranks are 1 and
                     0.0 otherwise; None marks the undefined cases.
    """

    dim: int
    basis_columns: tuple[int, ...]
    rank_p: int
    rank_q: int
    overlap: float | None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValidationError("block-dim-1-or-2", detail=f"dim {self.dim}")
        if not (0 <= self.rank_p <= self.dim and 0 <= self.rank_q <= self.dim):
            raise ValidationError(
                "block-rank-bounds",
                detail=f"ranks ({self.rank_p},{self.rank_q}) vs dim {self.dim}",
            )
        if len(self.basis_columns) != self.dim:
            raise ValidationError("block-basis-size")


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Adapted orthonormal basis plus the list of blocks it carves out.

    Columns of `unitary` are grouped block by block in the declared order;
    conjugating either input projector by the unitary gives a matrix that
    is block diagonal along those groups.
    """

    unitary: np.ndarray
    blocks: tuple[Block, ...]

    def __post_init__(self):
        u = square_matrix(self.unitary)
        d = u.shape[0]
        res = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
        if res > UNITARITY_TOL:
            raise ValidationError("unitary", res)
        if sum(b.dim for b in self.blocks) != d:
            raise ValidationError("block-dims-sum-to-d")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    @functools.cached_property
    def _off_block_mask(self) -> np.ndarray:
        """True at the entries of a d x d matrix outside the declared blocks."""
        mask = np.ones((self.dim, self.dim), dtype=bool)
        offset = 0
        for blk in self.blocks:
            mask[offset : offset + blk.dim, offset : offset + blk.dim] = False
            offset += blk.dim
        mask.setflags(write=False)
        return mask

    def off_block_mass(self, m) -> float:
        """Max-abs entry of U^dagger m U outside the declared blocks."""
        conj = self.unitary.conj().T @ square_matrix(m) @ self.unitary
        mask = self._off_block_mask
        return float(np.max(np.abs(conj[mask]))) if mask.any() else 0.0

    def reconstruction_residual(self, m) -> float:
        """Max-abs error of rebuilding m from its own block restrictions,
        U . blockdiag(restrictions) . U^dagger."""
        m = square_matrix(m)
        conj = self.unitary.conj().T @ m @ self.unitary
        conj[self._off_block_mask] = 0.0
        return float(np.max(np.abs(self.unitary @ conj @ self.unitary.conj().T - m)))


def two_projector_blocks(p: Projector, q: Projector) -> BlockDecomposition:
    """Simultaneously block-diagonalize two projectors into dim<=2 blocks.

    Returns the adapted basis and per-block data.  Within every 2-dim
    block both restricted ranks are 1 and the overlap is strictly inside
    (0, 1); all trivial intersections appear as 1-dim blocks.  Blocks are
    ordered by descending overlap, then aligned 1-dim blocks, then the
    remaining null blocks; deterministic for golden-file comparisons.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(p.dim, q.dim)
    pm, qm = p.matrix, q.matrix
    d = p.dim

    generic = []   # (overlap, u, u_perp)
    aligned = []   # ran p meets ran q
    p_only = []    # ran p meets ker q
    q_only = []    # ker p meets ran q
    neither = []   # ker p meets ker q

    evals, evecs = np.linalg.eigh(pm)
    ran_cols = evecs[:, evals > 0.5]
    used = []

    if ran_cols.shape[1] > 0:
        comp = ran_cols.conj().T @ qm @ ran_cols
        c_vals, c_vecs = np.linalg.eigh((comp + comp.conj().T) / 2)
        basis = ran_cols @ c_vecs
        for i, c in enumerate(c_vals):
            u = basis[:, i]
            if c >= 1.0 - CLUSTER_TOL:
                aligned.append(u)
                used.append(u)
            elif c <= CLUSTER_TOL:
                p_only.append(u)
                used.append(u)
            else:
                # Partner direction: the component of q|u> outside the ray
                # of u, normalized.  <u|q|u> = c fixes all phases.
                w = (qm @ u) / np.sqrt(c)
                u_perp = (w - np.sqrt(c) * u) / np.sqrt(1.0 - c)
                generic.append((float(np.sqrt(c)), u, u_perp))
                used.append(u)
                used.append(u_perp)

    # Orthogonal complement of everything found so far: a q-invariant
    # subspace of ker p, on which q restricts to a projector.
    if used:
        stacked = np.column_stack(used)
        _, svals, vh = np.linalg.svd(stacked.conj().T, full_matrices=True)
        rank = int(np.sum(svals > 1e-12))
        remainder = vh[rank:].conj().T
    else:
        remainder = np.eye(d, dtype=complex)

    if remainder.shape[1] > 0:
        comp = remainder.conj().T @ qm @ remainder
        r_vals, r_vecs = np.linalg.eigh((comp + comp.conj().T) / 2)
        rem_basis = remainder @ r_vecs
        for i, c in enumerate(r_vals):
            if c > 0.5:
                q_only.append(rem_basis[:, i])
            else:
                neither.append(rem_basis[:, i])

    generic.sort(key=lambda t: -t[0])

    columns: list[np.ndarray] = []
    blocks: list[Block] = []

    def add_block(cols, rank_p, rank_q, overlap):
        start = len(columns)
        columns.extend(cols)
        blocks.append(
            Block(
                dim=len(cols),
                basis_columns=tuple(range(start, start + len(cols))),
                rank_p=rank_p,
                rank_q=rank_q,
                overlap=overlap,
            )
        )

    for overlap, u, u_perp in generic:
        add_block([u, u_perp], 1, 1, overlap)
    for u in aligned:
        add_block([u], 1, 1, 1.0)
    for u in p_only:
        add_block([u], 1, 0, 0.0)
    for u in q_only:
        add_block([u], 0, 1, 0.0)
    for u in neither:
        add_block([u], 0, 0, 0.0)

    decomp = BlockDecomposition(np.column_stack(columns), tuple(blocks))

    for m in (pm, qm):
        res = decomp.off_block_mass(m)
        if res > BLOCK_RESIDUAL_TOL:
            raise ValidationError("block-diagonality", res)
    return decomp


@dataclass(frozen=True, eq=False)
class NeumarkDilation:
    """Projective dilation of a dichotomic POVM onto system x ancilla."""

    projector: Projector
    convention: str = ANCILLA_CONVENTION


def _yes_effect(obs) -> Effect:
    if isinstance(obs, DichotomicObservable):
        return obs.yes_effect
    if isinstance(obs, Effect):
        return obs
    try:
        return validate_effect(square_matrix(obs))
    except ValidationError as exc:
        raise NotEffect(exc.invariant, exc.residual) from exc


def neumark_dilate(obs) -> NeumarkDilation:
    """Dilate a dichotomic POVM {A, I-A} to a projector on C^d x C^2.

    Spectral construction: with A = sum_i a_i |e_i><e_i|, the dilated
    projector is sum_i |v_i><v_i| where
    |v_i> = sqrt(a_i) |e_i>|0> + sqrt(1 - a_i) |e_i>|1>.
    Compressing onto ancilla state |0> recovers A to 1e-12.
    """
    a = _yes_effect(obs)
    d = a.dim
    eigs, vecs = np.linalg.eigh(a.matrix)
    eigs = np.clip(eigs, 0.0, 1.0)

    v = np.zeros((2 * d, d), dtype=complex)
    v[0::2, :] = vecs * np.sqrt(eigs)
    v[1::2, :] = vecs * np.sqrt(1.0 - eigs)
    proj = v @ v.conj().T
    return NeumarkDilation(Projector(proj, rank=d))


def compress(g, ancilla_state_index: int = 0) -> Effect:
    """Sub-block <s_A| G |s_A> of an operator on system x ancilla.

    The input must act on an even-dimensional space factored as d x 2 with
    the ancilla last.  Effects map to effects: the compression of any
    0 <= G <= I again satisfies 0 <= <s|G|s> <= I_d.
    """
    m = g.matrix if isinstance(g, Effect) else square_matrix(g)
    if m.shape[0] % 2 != 0:
        raise OddDimension(m.shape[0])
    if ancilla_state_index not in (0, 1):
        raise ValidationError("ancilla-index-0-or-1", detail=f"{ancilla_state_index!r}")
    s = ancilla_state_index
    return Effect(m[s::2, s::2])
