"""Exception hierarchy shared by all unsharpjoint modules.

Every error is an UnsharpJointError; a ValidationError names the invariant
that failed, and the residual where one is measured.
"""


class UnsharpJointError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(UnsharpJointError):
    """An object violates one of its construction invariants.

    Carries the invariant name and the measured residual so callers can
    report exactly what failed and by how much.
    """

    def __init__(self, invariant: str, residual: float | None = None, detail: str = ""):
        self.invariant = invariant
        self.residual = residual
        msg = invariant
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotHermitian(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""

    def __init__(self, residual: float):
        super().__init__("hermiticity", residual)


class SpectrumOutOfRange(ValidationError):
    """An eigenvalue falls outside the admissible interval for an effect."""

    def __init__(self, eigenvalue: float, lo: float, hi: float):
        self.eigenvalue = eigenvalue
        super().__init__(
            "spectrum-in-[0,1]",
            detail=f"eigenvalue {eigenvalue!r} outside [{lo!r}, {hi!r}]",
        )


class NotProjector(ValidationError):
    """Matrix is not idempotent (or not Hermitian) to tolerance."""

    def __init__(self, residual: float):
        super().__init__("idempotency", residual)


class DimensionMismatch(UnsharpJointError):
    """Operands act on spaces of incompatible dimension."""

    def __init__(self, *dims: int):
        self.dims = dims
        super().__init__(f"incompatible dimensions {dims}")


class OddDimension(UnsharpJointError):
    """Compression requires an even dimension (system x 2-level ancilla)."""

    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"dimension {dim} is not of the form 2*d")


class InvalidBox(ValidationError):
    """A conditional probability table violates a box invariant."""


class ParseError(UnsharpJointError):
    """Malformed input file; reports the offending file and field."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")
