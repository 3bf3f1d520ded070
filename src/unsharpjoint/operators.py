"""Validated operator types and the JSON operator format.

Everything downstream (smearing, block decomposition, joint observables,
CHSH correlators) is built out of the types defined here.  All matrices are
dense complex arrays; the constructions in this package live on small
Hilbert spaces (d <= 64; only `uj dilate` doubles it), so no sparsity is
needed.

Every tolerance of the package is named once, in the ledger below, and every
residual check runs through _within, which raises ValidationError(invariant,
residual) past its tolerance.  Validation errors report raw residuals.

Public constructors validate, derived values are built unchecked by
_frozen, and a joint witness (or a stack of them) is checked once, in one
eigensolve, by _check_effects.  Every type freezes its matrix (read-only
array), so instances are plain immutable values and safe to share across
threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Complex, Integral, Real

import numpy as np

from .errors import DimensionMismatch, ValidationError

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

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a norm below it has lost bits to underflow
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
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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


def _frozen(cls, **fields):
    """cls(**fields) without its checks, for values valid by construction
    from validated ones; array fields are made read-only in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@functools.lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """The dim x dim complex identity: one shared read-only array per dim."""
    eye = np.eye(dim, dtype=complex)
    eye.setflags(write=False)
    return eye


def _max_abs(a) -> float:
    """The largest |entry| of a, as a float; 0.0 for an empty a."""
    return float(np.max(np.abs(a), initial=0.0))


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
    """(m + m^H) / 2 of a matrix or of each matrix of a stack, halved first so
    that no finite m overflows; the same value for every non-subnormal entry."""
    return m / 2 + m.conj().swapaxes(-1, -2) / 2


def require_hermitian(m) -> np.ndarray:
    a = square_matrix(m)
    _within("hermiticity", _max_abs(a - a.conj().T), HERMITIAN_TOL)
    return a


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
def _check_effects(g: np.ndarray, tol: float, raw: bool = False) -> np.ndarray:
    """Check each m of a (k, d, d) stack for hermiticity and a spectrum in the
    window [-tol, 1 + tol], in one eigvalsh call (a non-finite entry anywhere
    first); Effect(m) is the k = 1 case at PSD_TOL.  The first failing m raises,
    spectrum-in-[0,1] naming its smallest eigenvalue if that is below the window,
    else its largest.  Returns the hermitized spectra, then the raw if raw."""
    if not np.isfinite(g).all():
        raise ValidationError("finite-entries")
    residuals = np.abs(g - g.swapaxes(1, 2).conj()).max(axis=(1, 2))
    h = _hermitian_part(g)
    eigs = np.linalg.eigvalsh(np.concatenate([h, g]) if raw else h)
    lo, hi = -tol, 1.0 + tol  # tested negated: a nan spectrum fails
    k = len(g)
    if (residuals.max(initial=0.0) > HERMITIAN_TOL or not eigs[:k, 0].min(initial=lo) >= lo
            or not eigs[:k, -1].max(initial=hi) <= hi):
        for res, spectrum in zip(residuals, eigs):
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
        if yes.dim != no.dim:
            raise DimensionMismatch(yes.dim, no.dim)
        _within("yes+no=identity", _max_abs(yes.matrix + no.matrix - identity(yes.dim)), AFFINE_TOL)

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


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent with integer rank equal to its trace.

    rank is any integer but a bool (np.int64 included) and is kept as an int.
    """

    matrix: np.ndarray
    rank: int

    @_quiet
    def __post_init__(self):
        rank = _require_int(self.rank, "rank-integer", -math.inf)
        m = require_hermitian(self.matrix)
        _within("idempotency", _max_abs(m @ m - m), HERMITIAN_TOL)
        h = _hermitian_part(m)
        # |mu^2 - mu| <= |h^2 - h|_F =: eps puts each eigenvalue mu of h in [-eps, 1 + eps].
        _within("idempotency", np.linalg.norm(h @ h - h), PSD_TOL)
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
        return DichotomicObservable.from_yes_effect(self.as_effect())


def _unit_vector(vec) -> np.ndarray:
    """vec / |vec| as a complex vector, for every finite vec nonzero in floating point."""
    v = _number_array(vec, "numeric-vector", complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValidationError("finite-entries")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not _SQRT_TINY <= n < math.inf:
        # |v|^2 overflowed or fell below the normal range: scale the largest part
        # to 1, part by part, as a complex divide by a subnormal overflows.
        scale = _max_abs(np.concatenate([v.real, v.imag]))
        if scale == 0:
            raise ValidationError("nonzero-vector")
        v = v.real / scale + 1j * (v.imag / scale)
        n = np.linalg.norm(v)
    return v / n


def projector_onto(vec) -> Projector:
    """Rank-1 projector onto the ray of a (nonzero) vector."""
    v = _unit_vector(vec)
    return Projector(np.outer(v, v.conj()), rank=1)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite operator of unit trace."""

    matrix: np.ndarray

    @_quiet
    def __post_init__(self):
        m = require_hermitian(self.matrix)
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
        _within("unit-trace", abs(float(np.trace(m).real) - 1.0), AFFINE_TOL)
        return _frozen(cls, matrix=m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        """I / dim; dim is any integer of at least 1 but a bool, else square-matrix,
        and small enough that numpy can size a complex dim x dim array."""
        dim = _require_int(dim, "square-matrix", 1, math.isqrt(np.iinfo(np.intp).max // 16))
        return cls(np.eye(dim, dtype=complex) / dim)  # not identity(dim): no large dim is cached


def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major JSON operator encoding {"dim", "re", "im"}."""
    a = square_matrix(m)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


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
    return re + 1j * im
