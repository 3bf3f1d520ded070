"""Simultaneous block reduction of two projectors, dilation, compression.

Two Hermitian projectors p, q on C^d can be brought, by one unitary change
of basis, to a direct sum of blocks of dimension one or two: the classical
principal-angle structure (Halmos, "Two subspaces", 1969).  One-dimensional
blocks carry the four trivial intersections (ran p meets ran q, ran p meets
ker q, and so on); each two-dimensional block carries a pair of rank-1
projectors at an angle theta, whose overlap cos(theta) is the pair's degree
of complementarity.

two_projector_blocks pairs the eigenvectors of q's compressions to ran p
and ker p, in the style of Bjorck & Golub (Math. Comp. 27, 1973).  No step
divides by a small sine or cosine, so nearly aligned pairs decompose as
well as generic ones.  It is the one builder of Block and
BlockDecomposition, plain records whose constructors check nothing: it
writes the basis once and makes the two checks that can fail there,
unitarity and, in one stacked product, the block diagonality of p and q.
No verdict and no lambda-opt value reads the blocks: they serve `uj blocks`,
acceptance criterion 6 and the `blocks` benchmark workload.

The same module hosts the 2-level-ancilla dilation of a dichotomic POVM to
a projector, built unchecked, and the checked compression back to the
system, both in the one convention ANCILLA_CONVENTION: system tensor
ancilla, ancilla state = index 0 of the last factor.  No joint-measurability
decision uses this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    BLOCK_RESIDUAL_TOL,
    CLUSTER_TOL,
    UNITARITY_TOL,
    DichotomicObservable,
    Effect,
    Projector,
    _frozen,
    _max_abs,
    _require,
    _same_dim,
    _within,
    identity,
    square_matrix,
)

ANCILLA_CONVENTION = "system-tensor-ancilla; ancilla state = index 0 of last factor"


@dataclass(frozen=True)
class Block:
    """One invariant subspace of the pair (p, q).

    Its basis is the next dim columns of the adapted unitary, after those
    of the blocks before it.

    dim           -- 1 or 2
    rank_p/rank_q -- rank of each projector restricted to the block, 0 to dim
    overlap       -- |<chi_p|chi_q>| between the rank-1 ranges when both
                     ranks are 1 (the cosine of the block's angle for dim-2
                     blocks); for dim-1 blocks it is 1.0 when both ranks
                     are 1 and 0.0 otherwise.

    two_projector_blocks makes dim and the ranks ints and overlap a finite
    float, not capped at 1: rounding can put a cosine a few ulps past it.
    """

    dim: int
    rank_p: int
    rank_q: int
    overlap: float


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Adapted orthonormal basis plus the list of blocks it carves out.

    Columns of the read-only `unitary` are grouped block by block in the
    declared order, each block taking the next Block.dim of them;
    conjugating either input projector by the unitary gives a matrix that
    is block diagonal along those groups.
    """

    unitary: np.ndarray
    blocks: tuple[Block, ...]


def two_projector_blocks(p: Projector, q: Projector) -> BlockDecomposition:
    """Simultaneously block-diagonalize two projectors into dim<=2 blocks.

    Split: eigh(p) gives orthonormal bases of ran p and ker p.  Compress:
    eigh of q on ran p gives u_i with c_i = cos^2(theta), on ker p it gives
    k_j with s_j = sin^2(theta).  Group: the values c_i and 1 - s_j are
    sorted together and cut wherever two neighbours differ by more than
    CLUSTER_TOL.  Pair: in a group with vectors on both sides, the SVD of
    the coupling k^H q u pairs them.  Each singular value sin*cos above
    CLUSTER_TOL gives a 2-dim block [u, k] with <k|q|u> > 0; every other
    vector is a 1-dim block whose species the group's value, near 0 or
    near 1, names.  So an angle with sin*cos at most CLUSTER_TOL snaps to
    two 1-dim blocks.  The two eigensolves may mix the vectors of two close
    angles in different ways; the polar factor of the 2-dim blocks'
    coupling, away from the snapped ends, turns the k back in line.

    Blocks are ordered by descending overlap, then the 1-dim blocks: ran p
    in ran q, ran p in ker q, ker p in ran q, ker p in ker q.  Within a
    species of several directions any orthonormal basis is valid.
    """
    _same_dim(_require(p, Projector).dim, _require(q, Projector).dim)
    pm, qm = p.matrix, q.matrix
    evals, evecs = np.linalg.eigh(pm)
    ran, ker = evecs[:, evals > 0.5], evecs[:, evals <= 0.5]
    c, u = np.linalg.eigh(ran.conj().T @ qm @ ran)
    s, k = np.linalg.eigh(ker.conj().T @ qm @ ker)
    u, k = ran @ u, ker @ k
    coupling = k.conj().T @ qm @ u

    # Vector i < n is u_i and vector n + j is k_j; each is valued by cos^2.
    n = len(c)
    values = np.concatenate([c, 1.0 - s]).tolist()
    groups = []   # (ran indices, ker indices, value), by ascending value
    last = None
    for i in sorted(range(len(values)), key=values.__getitem__):
        if last is None or values[i] - last > CLUSTER_TOL:
            groups.append(([], [], values[i]))
        groups[-1][i >= n].append(i if i < n else i - n)
        last = values[i]

    pu, pk, cos2, sig = [], [], [], []   # the 2-dim blocks
    entries = []   # (columns, rank_p, rank_q, overlap)
    for gr, gk, value in groups:
        x = coupling[gk[0], gr[0]] if len(gr) == len(gk) == 1 else 0.0
        if (sx := abs(x)) > CLUSTER_TOL:
            # One u and one k need no SVD: sigma = |x|, phase x / |x|.
            pu.append(u[:, gr[0]])
            pk.append(k[:, gk[0]] * (x / sx))
            cos2.append(c[gr[0]])
            sig.append(sx)
            continue
        ug, kg, r = u[:, gr], k[:, gk], 0
        if gr and gk:
            left, sv, right_h = np.linalg.svd(coupling[np.ix_(gk, gr)])
            r = int(np.sum(sv > CLUSTER_TOL))
            ug, kg = ug @ right_h.conj().T, kg @ left
            pu.extend(ug[:, :r].T)
            pk.extend(kg[:, :r].T)
            cos2.extend(np.abs(right_h[:r]) ** 2 @ c[gr])
            sig.extend(sv[:r])
        high = value > 0.5
        entries.extend(([col], 1, int(high), float(high)) for col in ug[:, r:].T)
        entries.extend(([col], 0, int(not high), 0.0) for col in kg[:, r:].T)

    # Away from the snapped ends the coupling is well conditioned: its polar
    # factor undoes any different mixing of close angles by the eigensolves.
    # A single block is in line already.
    mid = [i for i, ci in enumerate(cos2) if CLUSTER_TOL < ci < 1.0 - CLUSTER_TOL]
    if len(mid) > 1:
        um, km = np.column_stack([pu[i] for i in mid]), np.column_stack([pk[i] for i in mid])
        left, _, right_h = np.linalg.svd(km.conj().T @ qm @ um)
        for i, col in zip(mid, (km @ left @ right_h).T):
            pk[i] = col
    for a, b, ci, si in zip(pu, pk, cos2, sig):
        # Below cos^2 = 1/2 the cosine is better read off the coupling,
        # sin(theta)cos(theta) / sin(theta), than from the eigenvalue.
        entries.append(([a, b], 1, 1, float(math.sqrt(ci) if ci >= 0.5 else si / math.sqrt(1.0 - ci))))
    entries.sort(key=lambda e: (len(e[0]) == 1, -e[3], -e[1], -e[2]))

    unitary = np.stack([col for cols, *_ in entries for col in cols], axis=1)
    uh = unitary.conj().T
    _within("unitary", _max_abs(uh @ unitary - identity(len(unitary))), UNITARITY_TOL)
    ids = np.repeat(np.arange(len(entries)), [len(cols) for cols, *_ in entries])
    conj = uh @ np.stack([pm, qm]) @ unitary
    _within("block-diagonality", _max_abs(conj[:, ids[:, None] != ids]), BLOCK_RESIDUAL_TOL)
    unitary.setflags(write=False)
    return BlockDecomposition(unitary, tuple(
        Block(len(cols), rank_p, rank_q, overlap) for cols, rank_p, rank_q, overlap in entries))


def neumark_dilate(obs: DichotomicObservable) -> Projector:
    """Dilate a dichotomic POVM {A, I-A} to a rank-d projector on C^d x C^2,
    in ANCILLA_CONVENTION.

    Spectral construction: with A = sum_i a_i |e_i><e_i|, the dilated
    projector is sum_i |v_i><v_i| where
    |v_i> = sqrt(a_i) |e_i>|0> + sqrt(1 - a_i) |e_i>|1>, a_i clipped to [0, 1].
    Compressing onto ancilla state |0> recovers A to 1e-12 when its spectrum
    lies in [0, 1], else A clipped, at most PSD_TOL away at the window's edges.
    The v_i are orthonormal to rounding: a rank-d projector, built unchecked."""
    a = _require(obs, DichotomicObservable).yes_effect
    d = a.dim
    eigs, vecs = np.linalg.eigh(a.matrix)
    eigs = np.clip(eigs, 0.0, 1.0)

    v = np.zeros((2 * d, d), dtype=complex)
    v[0::2, :] = vecs * np.sqrt(eigs)
    v[1::2, :] = vecs * np.sqrt(1.0 - eigs)
    return _frozen(Projector, matrix=v @ v.conj().T, rank=d)


def compress(g) -> Effect:
    """Sub-block <0_A| G |0_A> of an operator on system x ancilla.

    The input must act on an even-dimensional space factored as d x 2 with
    the ancilla last; the ancilla state is |0>, as in ANCILLA_CONVENTION.
    Effects map to effects: the compression of any 0 <= G <= I again
    satisfies 0 <= <0|G|0> <= I_d.
    """
    m = g.matrix if isinstance(g, Effect) else square_matrix(g)
    if m.shape[0] % 2 != 0:
        raise ValidationError("even-dimension", detail=f"dimension {m.shape[0]} is not of the form 2*d")
    return Effect(m[0::2, 0::2])
