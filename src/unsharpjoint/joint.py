"""Joint observables for pairs of unsharp dichotomic measurements.

A pair of two-outcome measurements is jointly measurable when a single
four-outcome POVM {G_pp, G_pm, G_mp, G_mm} reproduces both of them as
marginals.  Every decision of this module is made in one place,
_decide(pair, lam), on a pair value from one of three builders, the only
code that classifies a pair: _bloch_pair (Bloch vectors m, n),
_projector_pair (projectors P, Q) and _observable_pair (dichotomic
observables; a sharp pair becomes the pair of its projectors).  The pair
carries top, the largest eigenvalue of |A+B| + |A-B| for the contrasts
A = E1 - N1, B = E2 - N2 (m.sigma and n.sigma; 2P - I and 2Q - I), solved
once and only when read: the gate reads it only past lam = 1/sqrt(2).
_decide takes one of three paths:

* the witness (_witnesses)

    G_jk = (I + lam (j A + k B) + jk lam (|A+B| - |A-B|) / 2) / 4

  has the two smeared observables as marginals, and every G_jk is at least
  (2 - lam * top) / 8, so the gate (_feasible) passes it when
  lam * top <= 2 + CRITERION_SLACK or lam <= 1/sqrt(2):
  (|A+B| + |A-B|)^2 <= 2 (|A+B|^2 + |A-B|^2) = 4 (A^2 + B^2) <= 8 for
  |A|, |B| <= 1, so top <= 2 sqrt(2) and every pair is jointly measurable
  at 1/sqrt(2) (Busch 1986);
* past the gate, a closed-form "no" for a sharp pair, for which the gate
  is exact;
* past the gate, any other pair goes to an alternating-projection
  (Dykstra) feasibility oracle, Anderson-accelerated and started at the
  witness.  Its verdicts do not rest on the start (a "yes" is a checked PSD
  point of the affine set, a "no" a Farkas certificate), so it also
  cross-checks every closed-form verdict in the test suite.

For Bloch vectors |A+B| and |A-B| are the scalars |m+n| and |m-n|,
top = |m+n| + |m-n| is the paper's criterion, and each observable wraps
(I + v.sigma) / 2 and its complement directly, once per vector.  The
largest feasible unsharpness of a pair (lambda_opt_search) comes from the
same top and gate, and _decide checks it; its worst case over Bloch-vector
pairs, 1/sqrt(2), is reached at every orthogonal pair (worst_case_pair).

The operator form needs no block decomposition.  The anticommutator
{A, B} of a sharp pair commutes with A and B, so on every invariant block
of the pair (Halmos, "Two subspaces", 1969) |A+B| and |A-B| are the
scalars |m+n| and |m-n| of that block's Bloch vectors, 2 and 0 (or 0 and
2) on a commuting one, and the witness is the qubit midpoint witness
block by block.  |A+B| and |A-B| come from eigh of A+B and A-B with
absolute eigenvalues (_abs_pair), not from (2 +- {A,B})^(1/2), whose square
root loses half the digits where {A,B} is near +-2: on commuting and
nearly aligned blocks.  Each decision checks only its final witness, once,
as one (4, d, d) stack filled in place; |A+B| and |A-B| are raw arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .operators import (
    ANDERSON_TIKHONOV,
    BLOCH_NORM_TOL,
    CERTIFICATE_MARGIN,
    CRITERION_SLACK,
    JOINT_NORMALIZATION_TOL,
    PSD_TOL,
    QUBIT_WITNESS_TOL,
    RANK_TOL,
    DichotomicObservable,
    Effect,
    Projector,
    _check_effects,
    _frozen,
    _hermitian_part,
    _max_abs,
    _number_array,
    _quiet,
    _require,
    _require_int,
    _same_dim,
    _unit_vector,
    _within,
    identity,
)
from .unsharp import _lambda_array, smear, validate_lambda

LAMBDA_OPT = 1.0 / math.sqrt(2.0)
_BUSCH_EDGE = math.sqrt(0.5)  # 1/sqrt(2) rounded to nearest, one ulp above LAMBDA_OPT

_PM = np.array((1.0, -1.0))[:, None, None]  # the k of lam (A + k B) in _witnesses
_JK_SIGNS = np.array((1.0, -1.0, -1.0, 1.0))[:, None, None]  # the sign of F in the oracle's G_jk

# The oracle tests for a Farkas certificate at iteration 1, then at most every
# CERTIFICATE_EVERY iterations, and accepts one whose pairing with the affine
# points lies below -CERTIFICATE_MARGIN * d * |H|_F, far above rounding.
CERTIFICATE_EVERY = 5
MAX_ITER = 20000
ANDERSON_MEMORY = 3


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Unit 3-vector parametrizing a rank-1 qubit projector (I + v.sigma)/2."""

    v: np.ndarray
    # observable(), kept once built; threads that race to build it build equal values.
    _observable: DichotomicObservable | None = field(default=None, init=False, repr=False)

    @_quiet
    def __post_init__(self):
        a = _number_array(self.v, "bloch-3-vector").reshape(-1)
        if a.shape != (3,):
            raise ValidationError("bloch-3-vector", detail=f"shape {a.shape}")
        norm = math.sqrt(a.dot(a))
        if not math.isfinite(norm):
            raise ValidationError("bloch-finite", detail=f"got {a.tolist()}")
        _within("bloch-unit-norm", abs(norm - 1.0), BLOCH_NORM_TOL)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "v", a)

    @classmethod
    def normalized(cls, v) -> "BlochVector":
        a = _number_array(v, "bloch-3-vector").reshape(-1)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(a))
        if 0.0 < norm < math.inf:
            unit = a / norm
            if abs(float(np.linalg.norm(unit)) - 1.0) <= BLOCH_NORM_TOL:
                return cls(unit)
        if not (np.isfinite(a).all() and a.any()):
            raise ValidationError("bloch-nonzero-finite-norm", detail=f"norm {norm!r}")
        # |a|^2 overflowed, or lost its bits below the normal range: rescale first.
        return cls(_unit_vector(a).real)

    def observable(self) -> DichotomicObservable:
        if self._observable is None:
            # Exactly Hermitian, eigenvalues (1 +- |v|) / 2 with |v| = 1 to BLOCH_NORM_TOL:
            # a projector and an effect by construction.  (I + v.sigma) / 2 entry by entry:
            # + 0.0 turns -0.0 into the +0.0 of the sum over Pauli matrices, bit for bit.
            x, y, z = (c + 0.0 for c in self.v.tolist())
            m = 0.5 * np.array([[1.0 + z, complex(x, 0.0 - y)], [complex(x, y), 1.0 - z]])
            yes, no = (_frozen(Effect, matrix=e) for e in (m, identity(2) - m))
            object.__setattr__(self, "_observable", _frozen(DichotomicObservable, yes_effect=yes, no_effect=no))
        return self._observable


@dataclass(frozen=True, eq=False)
class JointObservable:
    """Four effects with outcome labels (+,+), (+,-), (-,+), (-,-).

    The effects sum to the identity (to JOINT_NORMALIZATION_TOL); each is
    PSD by Effect validation, or in a decision's witness by the one stacked
    _check_effects of _yes, which then wraps them unchecked.  Row marginals
    reproduce the first observable, column marginals the second.
    """

    g_pp: Effect
    g_pm: Effect
    g_mp: Effect
    g_mm: Effect
    # Smallest raw eigenvalue, from the witness check's one raw spectrum (its Weyl
    # margin leaves only a hermitized fallback near the window's edges), for check_joint.
    _min_eig: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        eye = identity(_same_dim(*(_require(e, Effect).dim for e in self.effects)))
        total = sum(e.matrix for e in self.effects)
        _within("joint-normalization", _max_abs(total - eye), JOINT_NORMALIZATION_TOL)

    @property
    def effects(self) -> tuple[Effect, Effect, Effect, Effect]:
        return (self.g_pp, self.g_pm, self.g_mp, self.g_mm)

    @property
    def dim(self) -> int:
        return self.g_pp.dim

    def min_eigenvalue(self) -> float:
        if self._min_eig is not None:
            return self._min_eig
        return min(float(np.linalg.eigvalsh(e.matrix)[0]) for e in self.effects)


@dataclass(frozen=True)
class JointResiduals:
    """Max-abs defects of the joint-observable constraints.

    normalization   -- the four effects against the identity
    marginal_first  -- row sums against the first (smeared) observable
    marginal_second -- column sums against the second
    min_eigenvalue  -- smallest eigenvalue over the four effects
    """

    normalization: float
    marginal_first: float
    marginal_second: float
    min_eigenvalue: float

    @property
    def marginal_max(self) -> float:
        return max(self.normalization, self.marginal_first, self.marginal_second)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of a joint-measurability decision.

    feasible          -- "yes" | "no" | "undetermined"
    witness           -- joint observable certifying "yes" (None otherwise)
    marginal_residual -- max-abs marginal/normalization defect of the
                         witness; for an oracle "no" or "undetermined",
                         the max-abs gap between its affine and PSD
                         iterates; 0.0 for a closed-form "no"
    min_eigenvalue    -- smallest eigenvalue of the witness effects; for a
                         "no" from the closed form, the (negative) value
                         the construction would have had; for an oracle
                         "no" or "undetermined", that of its affine iterate
                         in the oracle's own eigh
    iterations        -- oracle iterations (0 for constructive paths)
    certificate       -- for an oracle "no", the read-only (4, d, d) stack
                         of PSD matrices H_pp, H_pm, H_mp, H_mm with
                         H_pp - H_pm - H_mp + H_mm = 0 and a negative
                         pairing with every affine point (see
                         feasibility_oracle); None otherwise
    """

    feasible: str
    witness: JointObservable | None
    marginal_residual: float
    min_eigenvalue: float
    iterations: int
    certificate: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.feasible == "yes"


def check_joint(
    j: JointObservable,
    o1lam: DichotomicObservable,
    o2lam: DichotomicObservable,
) -> JointResiduals:
    """Residuals of j against two (already smeared) target observables."""
    _same_dim(_require(j, JointObservable).dim, _require(o1lam, DichotomicObservable).dim,
              _require(o2lam, DichotomicObservable).dim)
    gpp, gpm, gmp, gmm = (e.matrix for e in j.effects)
    r = np.empty((5, j.dim, j.dim), dtype=complex)
    r_norm, r_yes1, r_no1, r_yes2, r_no2 = r  # each written in place, in the order of its sum
    np.subtract(np.add(gpp, gpm, out=r_norm), o1lam.yes_effect.matrix, out=r_yes1)
    np.subtract(np.add(gmp, gmm, out=r_no1), o1lam.no_effect.matrix, out=r_no1)
    np.subtract(np.add(gpp, gmp, out=r_yes2), o2lam.yes_effect.matrix, out=r_yes2)
    np.subtract(np.add(gpm, gmm, out=r_no2), o2lam.no_effect.matrix, out=r_no2)
    np.subtract(np.add(np.add(r_norm, gmp, out=r_norm), gmm, out=r_norm), identity(j.dim), out=r_norm)
    norm, yes1, no1, yes2, no2 = np.abs(r).max(axis=(1, 2)).tolist()
    return JointResiduals(norm, max(yes1, no1), max(yes2, no2), j.min_eigenvalue())


def criterion_value(m, n, lam) -> float:
    """lam * (|m+n| + |m-n|) for BlochVectors m, n; the pair is jointly measurable iff <= 2."""
    return _bloch_pair(m, n).top * validate_lambda(lam)


def _feasible(lam, pair):
    """The one closed-form gate, for a float lam or an array of them: True where
    the witness of _witnesses at lam is PSD, by Busch's bound or by lam * top <= 2;
    the pair's top is not read for a float lam that Busch's bound passes."""
    # Every contrast the constructors accept has |A|, |B| <= 1 + 2 PSD_TOL (effects
    # in [-PSD_TOL, 1 + PSD_TOL], projectors as effects, |m| <= 1 + BLOCH_NORM_TOL),
    # so top <= 2 sqrt(2) (1 + 2 PSD_TOL) and at lam <= 1/sqrt(2) every G_jk is
    # at least (2 - lam * top) / 8 >= -PSD_TOL / 2.  _BUSCH_EDGE passes 1/sqrt(2)
    # by less than 1e-16 relative, far inside that slack.
    busch = lam <= _BUSCH_EDGE
    return busch if busch is True else busch | (lam * pair.top <= 2.0 + CRITERION_SLACK)


@dataclass(eq=False)
class _Pair:
    """A pair as _decide reads it: the gate's top, solved at most once and only when
    read, and parts(), the witness's A, B, |A+B|, |A-B| and observables to smear."""

    solve_top: Callable[[], float]  # the largest eigenvalue of |A+B| + |A-B|
    exact: bool  # a sharp pair: past the gate the verdict is a closed-form "no"
    tol: float  # the witness tolerance
    parts: Callable[[], tuple]

    @functools.cached_property
    def top(self) -> float:
        return self.solve_top()


def _bloch_pair(m, n) -> _Pair:
    """The pair of BlochVectors m, n: |A+-B| are the scalars |m+-n|, as
    np.linalg.norm evaluates them, and the observables are built only for a witness."""
    mb, nb = _require(m, BlochVector), _require(n, BlochVector)
    sv, dv = mb.v + nb.v, mb.v - nb.v
    s, d = math.sqrt(sv.dot(sv)), math.sqrt(dv.dot(dv))

    def parts():
        o1, o2 = mb.observable(), nb.observable()
        return o1.difference(), o2.difference(), s * identity(2), d * identity(2), o1, o2

    return _Pair(lambda: s + d, True, QUBIT_WITNESS_TOL, parts)


def _projector_pair(p1, p2) -> _Pair:
    """The pair of Projectors p1, p2, with A = 2 p1 - I, B = 2 p2 - I."""
    p1, p2 = _require(p1, Projector), _require(p2, Projector)
    eye = identity(_same_dim(p1.dim, p2.dim))
    a, b = (2.0 * p.matrix - eye for p in (p1, p2))
    abs_sum, abs_diff = _abs_pair(a, b)
    return _Pair(lambda: float(np.linalg.eigvalsh(abs_sum + abs_diff)[-1]), True, PSD_TOL,
                 lambda: (a, b, abs_sum, abs_diff, p1.observable(), p2.observable()))


def _observable_pair(o1, o2) -> _Pair:
    """The pair of two DichotomicObservables: that of their yes-effects if both
    are projectors (by Projector.from_matrix), else one with A = E1 - N1,
    B = E2 - N2 and an inexact gate.  A projector's trace is its rank, so a
    non-integer trace rules a pair out before the idempotency check."""
    _same_dim(_require(o1, DichotomicObservable).dim, _require(o2, DichotomicObservable).dim)
    ms = (o1.yes_effect.matrix, o2.yes_effect.matrix)
    if not any(abs(t - round(t)) > RANK_TOL for t in (float(np.trace(m).real) for m in ms)):
        try:
            return _projector_pair(*(Projector.from_matrix(m) for m in ms))
        except ValidationError:
            pass
    a, b = o1.difference(), o2.difference()
    abs_sum, abs_diff = _abs_pair(a, b)
    return _Pair(lambda: float(np.linalg.eigvalsh(abs_sum + abs_diff)[-1]), False, PSD_TOL,
                 lambda: (a, b, abs_sum, abs_diff, o1, o2))


def _abs_pair(a: np.ndarray, b: np.ndarray):
    """|A+B| and |A-B| (a, b of one shape), from one eigh of A+B and A-B with absolute eigenvalues."""
    w, v = np.linalg.eigh(np.stack([a + b, a - b]))
    abs_sum, abs_diff = (v * np.abs(w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    return abs_sum, abs_diff


def _witnesses(a, b, abs_sum, abs_diff, lam) -> np.ndarray:
    """The one witness formula G_jk = (I + lam (j A + k B) + jk lam (|A+B| - |A-B|) / 2) / 4,
    raw: a (4, d, d) stack for a float lam, (r, 4, d, d) for an (r, 1, 1, 1) lam."""
    # Filled in place by adding or subtracting lam (A+B), lam (A-B) and t: signs of
    # +-1 are exact, so only a zero's sign could differ, and I + x clears it.
    sd, t = lam * (a + _PM * b), lam * (abs_sum - abs_diff) / 2.0
    g = np.empty((*sd.shape[:-3], 4, *a.shape), dtype=complex)
    np.add(identity(len(a)), sd, out=g[..., :2, :, :])  # (j, k) = (+, +), (+, -)
    np.subtract(identity(len(a)), sd[..., ::-1, :, :], out=g[..., 2:, :, :])  # (-, +), (-, -)
    g[..., ::3, :, :] += t
    g[..., 1:3, :, :] -= t
    return np.divide(g, 4.0, out=g)


def _yes(g, tol: float, o1lam, o2lam, iterations: int, eigs=None) -> FeasibilityReport:
    """A "yes" carrying the witness g, checked once at tol (on raw spectra eigs if given), and its residuals."""
    eigs = _check_effects(g, tol, eigs)
    g.setflags(write=False)
    g_pp, g_pm, g_mp, g_mm = (_frozen(Effect, matrix=m) for m in g)
    witness = _frozen(JointObservable, g_pp=g_pp, g_pm=g_pm, g_mp=g_mp, g_mm=g_mm,
                      _min_eig=float(np.min(eigs[:, 0])))
    res = check_joint(witness, o1lam, o2lam)
    _within("joint-normalization", res.normalization, JOINT_NORMALIZATION_TOL)
    return FeasibilityReport("yes", witness, res.marginal_max, res.min_eigenvalue, iterations)


def _decide(pair: _Pair, lam: float) -> FeasibilityReport:
    """The one place a decision picks its path: the witness where the gate
    passes; past it a closed-form "no" for an exact pair, carrying the smallest
    eigenvalue (2 - lam * top) / 8 the witness would have had; else the oracle."""
    if _feasible(lam, pair):
        a, b, abs_sum, abs_diff, o1, o2 = pair.parts()
        return _yes(_witnesses(a, b, abs_sum, abs_diff, lam), pair.tol, smear(o1, lam), smear(o2, lam), 0)
    if pair.exact:
        return FeasibilityReport("no", None, 0.0, (2.0 - lam * pair.top) / 8.0, 0)
    *_, o1, o2 = pair.parts()
    return feasibility_oracle(smear(o1, lam), smear(o2, lam))


def qubit_joint_observable(m, n, lam) -> FeasibilityReport:
    """Joint observable for two smeared rank-1 qubit projective pairs, BlochVectors m
    and n, decided as the module docstring says: the witness is the midpoint
    construction G_jk = ((1 + jk t) I + lam (j m + k n).sigma) / 4 with
    t = lam (|m+n| - |m-n|) / 2, checked at QUBIT_WITNESS_TOL."""
    return _decide(_bloch_pair(m, n), validate_lambda(lam))


def qubit_verdicts(m, n, lams) -> list[str]:
    """qubit_joint_observable(m, n, lam).feasible for each lam of a sequence: the
    "yes" witnesses are one stack, checked as that function checks each, by one _check_effects."""
    pair = _bloch_pair(m, n)
    lams = _lambda_array(lams)
    yes = _feasible(lams, pair)
    a, b, abs_sum, abs_diff, _, _ = pair.parts()
    g = _witnesses(a, b, abs_sum, abs_diff, lams[yes, None, None, None])
    _check_effects(g.reshape(-1, 2, 2), pair.tol)
    _within("joint-normalization", _max_abs(g.sum(axis=1) - identity(2)), JOINT_NORMALIZATION_TOL)
    return ["yes" if y else "no" for y in yes]


def pvm_joint_observable(p1: Projector, p2: Projector, lam) -> FeasibilityReport:
    """Joint observable for two smeared projective measurements, decided as the
    module docstring says: the witness is the qubit midpoint witness on every
    invariant block of the pair, with no decomposition built."""
    return _decide(_projector_pair(p1, p2), validate_lambda(lam))


def povm_joint_observable(
    o1: DichotomicObservable, o2: DichotomicObservable, lam
) -> FeasibilityReport:
    """Joint observable for any two smeared dichotomic observables, decided as
    the module docstring says; a sharp pair as pvm_joint_observable decides its
    projectors, any other past the gate by feasibility_oracle, whose report
    shows iterations > 0."""
    return _decide(_observable_pair(o1, o2), validate_lambda(lam))


def _affine_project(
    h: np.ndarray, base: np.ndarray, half_sum: np.ndarray, quarter_eye: np.ndarray
) -> np.ndarray:
    """Orthogonal projection onto the marginal constraints.

    The constraint set {G_pp + G_pm = Y1, G_mp + G_mm = I - Y1,
    G_pp + G_mp = Y2, G_pm + G_mm = I - Y2} is the affine space
    parametrized by one free Hermitian F:

        (F, Y1 - F, Y2 - F, I - Y1 - Y2 + F) = base + (F, -F, -F, F).

    The nearest point to h has F = (h_pp - h_pm - h_mp + h_mm) / 4 plus
    half_sum - quarter_eye = (Y1 + Y2) / 2 - I / 4.  base[0] is -0 in both
    parts and the signs multiply real and imaginary parts as floats, so no
    zero part of F changes sign.
    """
    f = 0.25 * (h[0] - h[1] - h[2] + h[3]) + half_sum - quarter_eye
    return (base.view(float) + _JK_SIGNS * f.view(float)).view(complex)


def validate_seed(seed) -> int:
    """Check a generator seed as an unsigned 64-bit integer."""
    return _require_int(seed, "seed-uint64", 0, 2**64 - 1)


def _farkas_certificate(
    x: np.ndarray, y: np.ndarray, base: np.ndarray, eye: np.ndarray
) -> np.ndarray | None:
    """Four PSD matrices proving the marginal constraints infeasible, or None.

    The candidate is the gap y - x between the PSD and the affine iterates,
    which converges to the gap vector of the two disjoint sets (Bauschke &
    Borwein 1994).  It is projected onto H_pp - H_pm - H_mp + H_mm = 0, so
    that its pairing with every affine point is the same (that with base,
    the point F = 0), hermitized and shifted by t (I, I, I, I) into the PSD
    cones.  If that pairing is negative beyond rounding, no PSD affine
    point exists: the pairing of two PSD matrices is never negative.

    Soundness of the relative margin: for every PSD G on the affine set,
    <H, G> equals the pairing; if H is PSD down to -eps, then <H, G> >=
    -eps d, as the four G_jk sum to I; and rounding in the PSD shift and
    the pairing is O(ulp d |H|_F |base|), so a margin proportional to
    |H|_F is the right scale.  A floor under |H|_F, which shrinks with the
    distance to the boundary, would refuse every certificate close to it.
    """
    h = y - x
    k = h[0] - h[1] - h[2] + h[3]
    h = _hermitian_part(h - np.stack([k, -k, -k, k]) / 4.0)
    h = h + max(0.0, -float(np.min(np.linalg.eigvalsh(h)))) * eye
    pairing = float(np.sum(np.conj(h) * base).real)
    if pairing >= -CERTIFICATE_MARGIN * len(eye) * float(np.linalg.norm(h)):
        return None
    h.setflags(write=False)
    return h


@_quiet  # a step past the float range comes back non-finite, and the oracle refuses it
def _anderson_step(step: np.ndarray, dz: list, dg: list, g: np.ndarray) -> np.ndarray:
    """step - (dZ + dG) gamma, gamma the Tikhonov-weighted least-squares fit of g by dG."""
    a = np.array(dg)
    gram = a @ a.T
    # All of dg is 0 only when the trace is: then gamma = 0.
    gram += (ANDERSON_TIKHONOV * np.trace(gram) or 1.0) * np.eye(len(gram))
    return step - (np.array(dz) + a).T @ np.linalg.solve(gram, a @ g)


def feasibility_oracle(
    o1lam: DichotomicObservable,
    o2lam: DichotomicObservable,
) -> FeasibilityReport:
    """Decide joint measurability by Anderson-accelerated alternating projections.

    Dykstra's alternating projections between the product of four PSD
    cones and the affine space of the marginal constraints iterate
    T(z) = P_aff(P_psd(z)) + z - P_psd(z); y = P_psd(z), x = P_aff(y).
    They start at the midpoint witness of the smeared contrasts
    A = 2 Y1 - I, B = 2 Y2 - I, _witnesses(A, B, |A+B|, |A-B|, 1), which
    is affine by construction (projected once, for rounding) and equals the
    witness _decide builds at the same lam: inside the gate it is PSD and
    the verdict is "yes" at iteration 1, and past it the gap y - x of
    iteration 1 is most often already a certificate.
    Each step is a type-II Anderson step on T (Walker & Ni 2011) in the
    real view of the stack, z + g - (dZ + dG) gamma: g = T(z) - z = x - y,
    dZ and dG are the last ANDERSON_MEMORY differences of z and g, and
    gamma fits g by dG in least squares, Tikhonov term ANDERSON_TIKHONOV
    trace(dG^T dG).
    An Anderson point whose |g| exceeds the last accepted one's, or a step
    that is not finite, gives way to the plain step z + g from the last
    accepted point and clears the history (after Zhang, O'Donoghue & Boyd
    2020): where no joint observable exists, |g| levels off at the gap and
    the plain steps carry y - x to the gap vector.  The verdict is:

    * "yes" once an affine iterate is PSD to -PSD_TOL, the effect
      tolerance, so the witness validates as a JointObservable; marginals
      then hold exactly;
    * "no" once a Farkas certificate verifies, tested at iteration 1 and
      then at the first accepted point CERTIFICATE_EVERY iterations after
      the last test: four PSD matrices H_jk with H_pp - H_pm - H_mp + H_mm
      = 0 whose pairing with the affine points is negative, which no PSD
      joint observable allows.  The certificate rides on the report;
    * "undetermined" when MAX_ITER iterations pass first: near the
      feasibility boundary, and also for near-sharp pairs at lam = 1, where
      nothing is smeared (3 of 100 at d = 2; ROADMAP item 19).

    The start takes |A+B| and |A-B| from _abs_pair, and each iteration makes
    one eigensolve, eigh of an (8, d, d) stack: the raw affine iterate for
    the PSD test and the hermitized input of the next PSD projection.  A
    "yes" is checked on, and a "no" or "undetermined" reported from, that
    eigh at its last iteration: the gap max|x - y| and the spectrum of x.
    """
    eye = identity(_same_dim(*(_require(o, DichotomicObservable).dim for o in (o1lam, o2lam))))
    y1, y2 = o1lam.yes_effect.matrix, o2lam.yes_effect.matrix
    half_sum = 0.5 * (y1 + y2)
    quarter_eye = 0.25 * eye
    base = np.stack([np.full_like(eye, complex(-0.0, -0.0)), y1, y2, eye - y1 - y2])

    a, b = 2.0 * y1 - eye, 2.0 * y2 - eye
    x = _affine_project(_witnesses(a, b, *_abs_pair(a, b), 1.0), base, half_sum, quarter_eye)
    z = x + np.zeros_like(x)  # the Dykstra correction starts at 0
    eigs, vecs = np.linalg.eigh(_hermitian_part(z))
    dz, dg, last = [], [], None  # the steps of z and of g; the last accepted (z, g, |g|)
    tested = 1 - CERTIFICATE_EVERY  # the iteration of the last test: the first is at 1
    certificate = None

    for it in range(1, MAX_ITER + 1):
        y = (vecs * np.maximum(eigs, 0.0)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)  # P_psd(z)
        x = _affine_project(y, base, half_sum, quarter_eye)
        zr, g = z.view(float).ravel(), (x - y).view(float).ravel()
        norm = float(np.linalg.norm(g))
        rejected = bool(dg) and norm > last[2]  # dg is empty after a plain step
        if rejected:
            step, dz, dg = last[0] + last[1], [], []
        else:
            if last is not None:
                dz, dg = [*dz, zr - last[0]][-ANDERSON_MEMORY:], [*dg, g - last[1]][-ANDERSON_MEMORY:]
            last, step = (zr, g, norm), zr + g
            if dg:
                step = _anderson_step(step, dz, dg, g)
                if not np.isfinite(step).all():
                    step, dz, dg = zr + g, [], []
        z = step.view(complex).reshape(x.shape)
        eigs, vecs = np.linalg.eigh(np.concatenate([x, _hermitian_part(z)]))
        low = float(eigs[:4, 0].min())
        if low >= -PSD_TOL:
            return _yes(x, PSD_TOL, o1lam, o2lam, it, eigs[:4])
        eigs, vecs = eigs[4:], vecs[4:]

        if it - tested >= CERTIFICATE_EVERY and not rejected:
            tested = it
            certificate = _farkas_certificate(x, y, base, eye)
            if certificate is not None:
                break

    return FeasibilityReport("undetermined" if certificate is None else "no", None,
                             _max_abs(x - y), low, it, certificate)


def worst_case_pair(seed) -> tuple[BlochVector, BlochVector]:
    """A uniformly random orthogonal Bloch pair drawn from seed, checked by
    validate_seed.  Every orthogonal pair has |m+n| = |m-n| = sqrt(2), so its
    threshold is the smallest of all pairs (Busch 1986): 1/sqrt(2) to rounding."""
    m, w = np.random.default_rng(validate_seed(seed)).normal(size=(2, 3))
    return BlochVector.normalized(m), BlochVector.normalized(w - (w @ m) / (m @ m) * m)


def lambda_opt_search(a, b) -> float:
    """The largest feasible unsharpness of a pair: two BlochVectors or two
    DichotomicObservables; anything else raises ValidationError ("pair-source").

    The threshold is the gate's (see the module docstring):

    * an exact pair (Bloch vectors, or two sharp observables as
      povm_joint_observable finds them): 1 where the gate passes lam = 1,
      else 2 / top (for a sharp pair the minimum of 1 / (c + sqrt(1 - c^2))
      over the overlaps c of its two-dimensional blocks), but never below
      LAMBDA_OPT, which the gate passes;
    * any other pair of observables: 1/sqrt(2), where the gate passes
      every pair.

    The value is checked as every "yes" is, by _decide, whose gate passes it.
    """
    if isinstance(a, BlochVector) and isinstance(b, BlochVector):
        pair = _bloch_pair(a, b)
    elif isinstance(a, DichotomicObservable) and isinstance(b, DichotomicObservable):
        pair = _observable_pair(a, b)
    else:
        raise ValidationError(
            "pair-source", detail="need two BlochVectors or two DichotomicObservables, "
            f"got {type(a).__name__} and {type(b).__name__}")
    value = (LAMBDA_OPT if not pair.exact
             else 1.0 if _feasible(1.0, pair) else max(LAMBDA_OPT, 2.0 / pair.top))
    _decide(pair, value)  # the gate passes value: the witness is built and checked
    return value
