"""Exception hierarchy shared by all unsharpjoint modules.

Every error is an UnsharpJointError.  A value the package refuses raises a
ValidationError, which names the invariant that failed ("hermiticity",
"spectrum-in-[0,1]", "idempotency", "box-cell", "density-matrix", ...) and
the residual where one is measured; callers branch on exc.invariant.  Only
operands of incompatible dimension (DimensionMismatch) and files uj cannot
read or write (ParseError, which names the file) have types of their own.
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


class DimensionMismatch(UnsharpJointError):
    """Operands act on spaces of incompatible dimension."""

    def __init__(self, *dims: int):
        self.dims = dims
        super().__init__(f"incompatible dimensions {dims}")


class ParseError(UnsharpJointError):
    """A file uj cannot read or write; reports the offending file and field."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")
