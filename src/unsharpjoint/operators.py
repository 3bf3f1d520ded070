"""Validated operator types and the JSON operator format.

Everything downstream (smearing, block decomposition, joint observables,
CHSH correlators) is built out of the types defined here.  All matrices are
dense complex arrays; the constructions in this package live on small
Hilbert spaces (d <= 64; only `uj dilate` doubles it), so no sparsity is
needed.

Tolerance policy is two-tier: affine identities and Hermiticity are checked
at 1e-10, positive-semidefiniteness at 1e-9.  Validation errors report raw
residuals.

Public constructors validate, derived values are built unchecked by
_frozen, and a joint witness (or a stack of them) is checked once, in one
eigensolve, by _check_effects.  Every type freezes its matrix (read-only
array), so instances are plain immutable values and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex, Integral, Real

import numpy as np

from .errors import DimensionMismatch, ValidationError

HERMITIAN_TOL = 1e-10
AFFINE_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-8  # a projector's trace against its integer rank

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)


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


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def require_hermitian(m) -> np.ndarray:
    a = square_matrix(m)
    res = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if res > HERMITIAN_TOL:
        raise ValidationError("hermiticity", res)
    return a


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator E with 0 <= E <= I.

    The atom of all measurements: outcome probabilities are Tr[rho E].
    Spectrum is checked with a Hermitian eigensolver at construction;
    the admissible window is [-PSD_TOL, 1 + PSD_TOL], PSD_TOL = 1e-9.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        _require_window(np.linalg.eigvalsh((m + m.conj().T) / 2), PSD_TOL)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Effect":
        # a -> 1 - a keeps the window [-PSD_TOL, 1 + PSD_TOL] and the hermiticity.
        return _frozen(Effect, matrix=identity(self.dim) - self.matrix)


def _require_window(eigs: np.ndarray, tol: float) -> None:
    """Raise spectrum-in-[0,1] for the smallest of the sorted eigs if it is
    below the window [-tol, 1 + tol], else for the largest if it is above."""
    lo, hi = -tol, 1.0 + tol
    eig = float(eigs[0] if eigs[0] < lo else eigs[-1])
    if eig < lo or eig > hi:
        raise ValidationError("spectrum-in-[0,1]", detail=f"eigenvalue {eig!r} outside [{lo!r}, {hi!r}]")


def _check_effects(g: np.ndarray, tol: float, raw: bool = False) -> np.ndarray:
    """Check each m of a (k, d, d) stack as Effect(m) does, but against the window
    [-tol, 1 + tol], in one eigvalsh call (a non-finite entry anywhere first); the
    hermitized spectra, then the raw if raw."""
    if not np.all(np.isfinite(g)):
        raise ValidationError("finite-entries")
    gh = np.conj(np.swapaxes(g, 1, 2))
    residuals = np.max(np.abs(g - gh), axis=(1, 2))
    eigs = np.linalg.eigvalsh(np.concatenate([(g + gh) / 2, g]) if raw else (g + gh) / 2)
    k = len(g)
    if np.any((residuals > HERMITIAN_TOL) | (eigs[:k, 0] < -tol) | (eigs[:k, -1] > 1.0 + tol)):
        for res, spectrum in zip(residuals, eigs):  # the first failing m raises
            if res > HERMITIAN_TOL:
                raise ValidationError("hermiticity", float(res))
            _require_window(spectrum, tol)
    return eigs


def _validated_effects(g, tol: float) -> tuple[tuple[Effect, ...], float]:
    """An Effect for each m of a (k, d, d) stack, checked by _check_effects at
    tol, and the smallest raw eigenvalue."""
    g = np.asarray(g, dtype=complex)
    eigs = _check_effects(g, tol, raw=True)
    g.setflags(write=False)
    return tuple(_frozen(Effect, matrix=m) for m in g), float(np.min(eigs[len(g):, 0]))


@dataclass(frozen=True, eq=False)
class DichotomicObservable:
    """Two-outcome measurement: a pair of effects summing to the identity."""

    yes_effect: Effect
    no_effect: Effect

    def __post_init__(self):
        if self.yes_effect.dim != self.no_effect.dim:
            raise DimensionMismatch(self.yes_effect.dim, self.no_effect.dim)
        res = float(
            np.max(
                np.abs(
                    self.yes_effect.matrix
                    + self.no_effect.matrix
                    - identity(self.yes_effect.dim)
                )
            )
        )
        if res > AFFINE_TOL:
            raise ValidationError("yes+no=identity", res)

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
        invariant = "".join(f"-{c.lower()}" if c.isupper() else c for c in cls.__name__)[1:]
        raise ValidationError(invariant, detail=f"got {type(value).__name__}")
    return value


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent with integer rank equal to its trace.

    rank is any integer but a bool (np.int64 included) and is kept as an int.
    """

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        if isinstance(self.rank, bool) or not isinstance(self.rank, Integral):
            raise ValidationError("rank-integer", detail=f"got {self.rank!r}")
        m = require_hermitian(self.matrix)
        res = float(np.max(np.abs(m @ m - m)))
        if res > HERMITIAN_TOL:
            raise ValidationError("idempotency", res)
        h = (m + m.conj().T) / 2
        # |mu^2 - mu| <= |h^2 - h|_F =: eps puts each eigenvalue mu of h in [-eps, 1 + eps].
        res = float(np.linalg.norm(h @ h - h))
        if res > PSD_TOL:
            raise ValidationError("idempotency", res)
        tr = float(np.trace(m).real)
        if abs(tr - self.rank) > RANK_TOL:
            raise ValidationError("rank-equals-trace", abs(tr - self.rank))
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", int(self.rank))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projector":
        a = square_matrix(m)
        return cls(a, rank=int(round(float(np.trace(a).real))))

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
    if not math.sqrt(np.finfo(float).tiny) <= n < math.inf:
        # |v|^2 overflowed or fell below the normal range: scale the largest part
        # to 1, part by part, as a complex divide by a subnormal overflows.
        scale = np.max(np.abs(np.concatenate([v.real, v.imag])), initial=0.0)
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

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs[0] < -PSD_TOL:
            raise ValidationError("psd", float(-eigs[0]))
        _require_unit_trace(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = _unit_vector(vec)
        # v v^H is PSD: only the eigensolve is skipped.
        m = require_hermitian(np.outer(v, v.conj()))
        _require_unit_trace(m)
        return _frozen(cls, matrix=m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        """I / dim; dim is any integer of at least 1 but a bool, else square-matrix."""
        if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1:
            raise ValidationError("square-matrix", detail=f"dim {dim!r} is not an integer >= 1")
        return cls(identity(dim) / dim)


def _require_unit_trace(m: np.ndarray) -> None:
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > AFFINE_TOL:
        raise ValidationError("unit-trace", abs(tr - 1.0))


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

    Anything else (not an object, a missing field, a non-integer dim,
    non-numeric entries) raises ValidationError("operator-json").
    """
    if not isinstance(obj, dict):
        raise ValidationError("operator-json", detail=f"expected an object, got {type(obj).__name__}")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValidationError("operator-json", detail=f"missing field {key!r}")
    dim = obj["dim"]
    if not (isinstance(dim, Integral) or isinstance(dim, float) and dim.is_integer()):
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
