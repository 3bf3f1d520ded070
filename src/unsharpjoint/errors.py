"""Exception hierarchy shared by all unsharpjoint modules.

Every error is an UnsharpJointError of one of two kinds.  A value the package
refuses, or a combination of values it refuses, raises a ValidationError,
which names the invariant that failed ("hermiticity", "spectrum-in-[0,1]",
"idempotency", "box-cell", "density-matrix", "same-dimension" for operands
on spaces of different dimension, ...) and the residual where one is
measured; callers branch on exc.invariant.  Only a file uj cannot read or
write has a type of its own: ParseError, which names the file.
"""


class UnsharpJointError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(UnsharpJointError):
    """A refused value, or a refused combination of values: an invariant failed.

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


class ParseError(UnsharpJointError):
    """A file uj cannot read or write; reports the offending file and field."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")
