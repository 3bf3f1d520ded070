"""Validated operator types and the JSON operator format.

Everything downstream (smearing, block decomposition, joint observables,
CHSH correlators) is built out of the types defined here.  All matrices are
dense complex arrays; the constructions in this package live on small
Hilbert spaces (d <= 64; only `uj dilate` doubles it), so no sparsity is
needed.

Every tolerance of the package is named once, in the ledger below, and every
residual check runs through _within, which raises ValidationError(invariant,
residual) past its tolerance.  Validation errors report raw residuals.

Public constructors validate, and each check reads a matrix once (one
isfinite pass; one m @ m - m for both idempotency bounds of a Hermitian
Projector); derived values are built unchecked by _frozen, and a joint
witness (or a stack of them) is checked once by _check_effects: one raw
spectrum (the oracle's own eigh, for its "yes") decides it past a Weyl
margin from the window's edges, a hermitized fallback near them; its
entries are read for finiteness only when a residual is not finite.
Every type freezes its matrix (read-only array), so instances are plain
immutable values and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from numbers import Complex, Integral, Real

import numpy as np

from .errors import ValidationError

# The tolerance ledger: every tolerance of the package, named once.  Each bounds
# a residual of O(1) quantities (entries of effects, states and unitaries, unit
# vectors), which rounding leaves at a few ulps times d, far below the bound:
# "abs" bounds the residual as it is, "rel" after scaling by the size named.
HERMITIAN_TOL = 1e-10  # abs: max|m - m^H|, and max|p^2 - p| of a projector
AFFINE_TOL = 1e-10  # abs: max|yes + no - I| of an observable, |tr rho - 1| of a state
PSD_TOL = 1e-9  # abs: effect window [-PSD_TOL, 1 + PSD_TOL], -min eig of a state, |h^2 - h|_F
RANK_TOL = 1e-8  # abs: a projector's trace against its integer rank
JOINT_NORMALIZATION_TOL = 1e-9  # abs: max|G_pp + G_pm + G_mp + G_mm - I| of a joint observable
BLOCH_NORM_TOL = 1e-12  # abs: ||v| - 1| of a Bloch vector
CRITERION_SLACK = 1e-12  # abs: lam * top may pass 2 by this and still get a witness, PSD to -slack/8
QUBIT_WITNESS_TOL = 1e-11  # abs: the effect window of the closed-form qubit witness
CERTIFICATE_MARGIN = 1e-12  # rel: a Farkas pairing must lie below -margin * d * |H|_F
ANDERSON_TIKHONOV = 1e-10  # rel: Tikhonov weight of the Anderson least squares, times tr(dG^T dG)
CLUSTER_TOL = 1e-10  # abs: cos^2 values closer than this are one angle; sin*cos below it snaps to 0
BLOCK_RESIDUAL_TOL = 1e-9  # abs: max off-block entry of a conjugated projector
UNITARITY_TOL = 1e-10  # abs: max|U^H U - I| of a block decomposition's basis
BOX_TOL = 1e-12  # abs: a box's normalization and no-signaling gaps
CHSH_BOUND_SLACK = 1e-9  # abs: a CHSH value within its bound up to this
SWEEP_END_SLACK = 1e-12  # abs: uj sweep keeps a grid point this far past --stop
BOB_DIRECTION_CUTOFF = 1e-12  # abs: |m +- n| below this is a zero direction for Bob in uj sweep

_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a norm below it has lost bits to underflow
_EPS = np.finfo(float).eps
_BOOLS = frozenset((bool, np.bool_))  # the entry types _holds_bool refuses
# Residual checks run under it: an overflow to inf or nan is refused by _within, not warned of.
_quiet = np.errstate(over="ignore", invalid="ignore")


def square_matrix(m) -> np.ndarray:
    """Coerce input to a finite square complex matrix of size at least 1.

    Raises ValidationError if the input is not an array of numbers (strings
    such as "1" included), has an entry past the float range, is not square,
    is 0x0 or has non-finite entries.
    """
    a = _number_array(m, "square-matrix", complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError("square-matrix", detail=f"shape {a.shape}")
    if not np.isfinite(a).all():  # False where either part is nan or +-inf
        raise ValidationError("finite-entries")
    return a


def _number_array(obj, invariant: str, dtype=float) -> np.ndarray:
    """A nested sequence of real numbers (bools count) as a float array, or
    with dtype=complex of complex numbers as a complex array.

    numpy would read the string "1" as 1.0, so the inferred dtype is checked
    first; entries of an object array (ints past int64, Fractions) are
    checked one by one.  Anything else raises ValidationError(invariant):
    "entries must be numbers" for a string, a mapping or None, numpy's own
    message for a ragged sequence or an entry past the float range.
    """
    kinds, number = ("biuf", Real) if dtype is float else ("biufc", Complex)
    try:
        raw = np.asarray(obj)
        if raw.dtype.kind in kinds or all(isinstance(v, number) for v in raw.flat):
            return raw.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(invariant, detail=str(exc)) from exc
    raise ValidationError(invariant, detail="entries must be numbers")


def _holds_bool(rows) -> bool:
    """Whether a 2-D table of numbers, nested sequences or an array, holds a
    bool: numpy reads True as 1.0, also in a row of floats, whatever the dtype."""
    return not _BOOLS.isdisjoint(map(type, itertools.chain.from_iterable(rows)))


def _frozen(cls, **fields):
    """cls(**fields) without its checks, for values valid by construction
    from validated ones; array fields are made read-only in place."""
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)  # no class built here has __slots__
    return obj


@functools.lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """The dim x dim complex identity: one shared read-only array per dim."""
    eye = np.eye(dim, dtype=complex)
    eye.setflags(write=False)
    return eye


def _max_abs(a) -> float:
    """The largest |entry| of a, as a float; 0.0 for an empty a."""
    return float(np.abs(a).max(initial=0.0))


def _within(invariant: str, residual: float, tol: float, detail: str = "") -> None:
    """The one residual check: ValidationError(invariant, residual, detail)
    unless residual <= tol, so a nan residual fails too."""
    if not residual <= tol:
        raise ValidationError(invariant, float(residual), detail)


def _got(value) -> str:
    """"got <repr>", or for an int (or Fraction) too long to print, its type and bit length."""
    try:
        return f"got {value!r}"
    except ValueError:  # int's 4,300-digit limit on str()
        return f"got {type(value).__name__} of {int(value).bit_length()} bits"


def _require_int(value, invariant: str, lo: float, hi: float = math.inf) -> int:
    """value as an int if it is an integer but a bool (np.int64 included) in
    [lo, hi], else ValidationError(invariant, detail=_got(value))."""
    # int first: it answers most calls before the slower Integral ABC lookup.
    if isinstance(value, bool) or not isinstance(value, (int, Integral)) or not lo <= value <= hi:
        raise ValidationError(invariant, detail=_got(value))
    return int(value)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2 of a matrix or of each matrix of a stack, as m/2 + (m/2)^H
    so that no finite m overflows; the same value for every non-subnormal entry."""
    h = m / 2
    return h + h.conj().swapaxes(-1, -2)


def require_hermitian(m) -> tuple[np.ndarray, float]:
    """square_matrix(m) and its hermiticity residual max|m - m^H|, checked."""
    a = square_matrix(m)
    residual = _max_abs(a - a.conj().T)
    _within("hermiticity", residual, HERMITIAN_TOL)
    return a, residual


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator E with 0 <= E <= I.

    The atom of all measurements: outcome probabilities are Tr[rho E].
    Spectrum is checked with a Hermitian eigensolver at construction;
    the admissible window is [-PSD_TOL, 1 + PSD_TOL].
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = square_matrix(self.matrix)
        _check_effects(m[None], PSD_TOL)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Effect":
        # a -> 1 - a keeps the window [-PSD_TOL, 1 + PSD_TOL] and the hermiticity.
        return _frozen(Effect, matrix=identity(self.dim) - self.matrix)


@_quiet
def _check_effects(g: np.ndarray, tol: float, eigs: np.ndarray | None = None) -> np.ndarray:
    """Check each m of a (k, d, d) stack for hermiticity and a spectrum in the
    window [-tol, 1 + tol] (a non-finite entry anywhere first); Effect(m) is the
    k = 1 case at PSD_TOL.  Returns the raw spectra, eigvalsh of each m as it is,
    or eigs, the caller's ascending (k, d) spectra of the same raw stack.

    eigvalsh reads the lower triangle of m, a Hermitian L with |L - h|_2 <= d r / 2
    for the hermitian part h and the stack's largest residual r = max|m - m^H|,
    so by Weyl's inequality (Bhatia, Matrix Analysis, 1997, Cor. III.2.6) a raw
    spectrum inside the window by d (r / 2 + 16 eps), which adds the rounding of
    both eigensolves, puts the hermitized one inside it too.  Spectra from eigh
    are backward stable as eigvalsh's are, so the same 16 eps d covers them.  Any
    other stack falls back to the hermitized spectra: the first failing m raises,
    hermiticity first, then spectrum-in-[0,1] naming its smallest eigenvalue if
    that is below the window, else its largest."""
    residuals = np.abs(g - g.swapaxes(1, 2).conj()).max(axis=(1, 2))
    worst = residuals.max(initial=0.0)
    # A nan or inf entry leaves a nan or inf residual, so only then are the entries read.
    if not worst < math.inf and not np.isfinite(g).all():
        raise ValidationError("finite-entries")
    eigs = np.linalg.eigvalsh(g) if eigs is None else eigs
    lo, hi = -tol, 1.0 + tol  # tested negated: a nan spectrum fails
    margin = g.shape[-1] * (worst / 2 + 16 * _EPS)
    if not (worst <= HERMITIAN_TOL
            and ((lo + margin <= eigs[:, 0]) & (eigs[:, -1] <= hi - margin)).all()):
        for res, spectrum in zip(residuals, np.linalg.eigvalsh(_hermitian_part(g))):
            _within("hermiticity", res, HERMITIAN_TOL)
            eig = float(spectrum[0] if not spectrum[0] >= lo else spectrum[-1])
            if not lo <= eig <= hi:
                raise ValidationError("spectrum-in-[0,1]",
                                      detail=f"eigenvalue {eig!r} outside [{lo!r}, {hi!r}]")
    return eigs


@dataclass(frozen=True, eq=False)
class DichotomicObservable:
    """Two-outcome measurement: a pair of effects summing to the identity."""

    yes_effect: Effect
    no_effect: Effect

    def __post_init__(self):
        yes, no = _require(self.yes_effect, Effect), _require(self.no_effect, Effect)
        eye = identity(_same_dim(yes.dim, no.dim))
        _within("yes+no=identity", _max_abs(yes.matrix + no.matrix - eye), AFFINE_TOL)

    @property
    def dim(self) -> int:
        return self.yes_effect.dim

    @classmethod
    def from_yes_effect(cls, m) -> "DichotomicObservable":
        yes = m if isinstance(m, Effect) else Effect(m)
        # yes + (I - yes) is I to rounding, far inside AFFINE_TOL.
        return _frozen(cls, yes_effect=yes, no_effect=yes.complement())

    def difference(self) -> np.ndarray:
        """The contrast operator E_yes - E_no entering mean values."""
        return self.yes_effect.matrix - self.no_effect.matrix


def _require(value, cls):
    """value if it is a cls, else a ValidationError named after cls (for a raw
    matrix in place of a DensityMatrix, say: "density-matrix: got ndarray")."""
    if not isinstance(value, cls):
        invariant = "".join(f"-{c.lower()}" if c.isupper() else c for c in cls.__name__).lstrip("-")
        raise ValidationError(invariant, detail=f"got {type(value).__name__}")
    return value


def _same_dim(*dims: int) -> int:
    """The dimension that all of dims share, else ValidationError("same-dimension") naming them."""
    if len(set(dims)) > 1:
        raise ValidationError("same-dimension", detail=f"incompatible dimensions {dims}")
    return dims[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent with integer rank equal to its trace.

    rank is any integer but a bool (np.int64 included) and is kept as an int.
    """

    matrix: np.ndarray
    rank: int
    # observable(), kept once built; threads that race to build it build equal values.
    _observable: DichotomicObservable | None = field(default=None, init=False, repr=False)

    @_quiet
    def __post_init__(self):
        rank = _require_int(self.rank, "rank-integer", -math.inf)
        m, hermiticity = require_hermitian(self.matrix)
        r = m @ m - m
        _within("idempotency", _max_abs(r), HERMITIAN_TOL)
        if hermiticity:  # else the hermitian part h is m, up to signed zeros and subnormals
            h = _hermitian_part(m)
            r = h @ h - h
        # |mu^2 - mu| <= |h^2 - h|_F =: eps puts each eigenvalue mu of h in [-eps, 1 + eps].
        _within("idempotency", _norm(r.ravel()), PSD_TOL)
        # A rank outside [0, dim] equals no trace (and may be past the float range).
        _require_int(rank, "rank-equals-trace", 0, len(m))
        _within("rank-equals-trace", abs(float(np.trace(m).real) - rank), RANK_TOL)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projector":
        a = square_matrix(m)
        with np.errstate(over="ignore"):  # finite entries can sum past the float range
            trace = float(np.trace(a).real)
        if not math.isfinite(trace):
            raise ValidationError("rank-equals-trace", detail=f"trace {trace!r}")
        return cls(a, rank=round(trace))

    def as_effect(self) -> Effect:
        # The idempotency bound keeps the spectrum in the effect window.
        return _frozen(Effect, matrix=self.matrix)

    def observable(self) -> DichotomicObservable:
        """The sharp dichotomic measurement {P, I - P}."""
        if self._observable is None:
            object.__setattr__(self, "_observable", DichotomicObservable.from_yes_effect(self.as_effect()))
        return self._observable


def _norm(v: np.ndarray) -> float:
    """|v| of a contiguous complex vector: np.linalg.norm's own sum, bit for bit."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _unit_vector(vec) -> np.ndarray:
    """vec / |vec| as a complex vector, for every finite vec nonzero in floating point."""
    v = _number_array(vec, "numeric-vector", complex).ravel()
    if not np.isfinite(v).all():
        raise ValidationError("finite-entries")
    with np.errstate(over="ignore"):
        n = _norm(v)
    if not _SQRT_TINY <= n < math.inf:
        # |v|^2 overflowed or fell below the normal range: scale the largest part
        # to 1, part by part, as a complex divide by a subnormal overflows.
        scale = _max_abs(np.concatenate([v.real, v.imag]))
        if scale == 0:
            raise ValidationError("nonzero-vector")
        v = v.real / scale + 1j * (v.imag / scale)
        n = _norm(v)
    return v / n


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite operator of unit trace."""

    matrix: np.ndarray

    @_quiet
    def __post_init__(self):
        m, _ = require_hermitian(self.matrix)
        _within("psd", -np.linalg.eigvalsh(_hermitian_part(m))[0], PSD_TOL)
        _within("unit-trace", abs(float(np.trace(m).real) - 1.0), AFFINE_TOL)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = _unit_vector(vec)
        # v v^H of a finite unit v is finite, square and PSD: only two checks run.
        m = np.outer(v, v.conj())
        _within("hermiticity", _max_abs(m - m.conj().T), HERMITIAN_TOL)
        _within("unit-trace", abs(float(m.trace().real) - 1.0), AFFINE_TOL)
        return _frozen(cls, matrix=m)


def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major JSON operator encoding {"dim", "re", "im"}."""
    a = square_matrix(m)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


@_quiet  # an inf entry makes 1j * im nan; square_matrix refuses it as finite-entries
def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; validates shape against the declared dim.

    Anything else (not an object, a missing field, a dim that is a bool or
    no integer, non-numeric entries) raises ValidationError("operator-json").
    """
    if not isinstance(obj, dict):
        raise ValidationError("operator-json", detail=f"expected an object, got {type(obj).__name__}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValidationError("operator-json", detail=f"missing field {key!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not (isinstance(dim, Integral)
                                     or isinstance(dim, float) and dim.is_integer()):
        raise ValidationError("operator-json", detail=f"dim {dim!r} is not an integer")
    dim = int(dim)
    try:
        re, im = (_number_array(obj[k], "operator-json") for k in ("re", "im"))
    except ValidationError as exc:  # numpy's message for a ragged re would run long
        raise ValidationError("operator-json", detail="re/im entries must be numbers") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            "operator-json",
            detail=f"re/im shapes {re.shape}/{im.shape} do not match dim {dim}",
        )
    if _holds_bool(obj["re"]) or _holds_bool(obj["im"]):  # JSON true and false are no numbers
        raise ValidationError("operator-json", detail="re/im entries must be numbers")
    return re + 1j * im
