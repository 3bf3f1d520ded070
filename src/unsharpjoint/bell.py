"""Bipartite correlations, CHSH values, and no-signaling boxes.

Every CHSH value here is |t11 + t12 + t21 - t22| of a 2x2 table of
correlators t[x, y], from one of two sources:

* Tr[state (A_x (x) B_y)] for a density matrix and dichotomic observables,
  from the one kernel _table, bounded by 2*sqrt(2).  Smearing Alice's wing
  by lam scales the table by lam, so lam = 1/sqrt(2) pins the smeared
  value at the local bound 2; a sweep over lam is one stack of tables;
* the correlators of a conditional-probability table (a box), where the
  algebraic maximum 4 is reached by the PR box.

A box is one float array p[x, y, a, b].  Every box built here has
entries in {0, 1/2, 1}, which floats hold exactly, so the PR box
gives CHSH = 4 and the deterministic boxes CHSH = 2 with no rounding.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ValidationError
from .joint import BlochVector
from .operators import (
    BOX_TOL, CHSH_BOUND_SLACK, DensityMatrix, DichotomicObservable, _holds_bool,
    _number_array, _require, _within,
)
from .unsharp import _lambda_array, _smeared_matrices, validate_lambda

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
LOCAL_BOUND = 2.0

SETTINGS = ("11", "12", "21", "22")


def _cell(key: str, cell) -> np.ndarray:
    """One setting's 2x2 table [a, b] of finite floats, or ValidationError
    ("box-cell") naming the setting, whatever _number_array found."""
    try:
        rows = _number_array(cell, "box-cell")
    except ValidationError:
        rows = None
    if rows is None or rows.shape != (2, 2) or not np.isfinite(rows).all() or _holds_bool(cell):
        raise ValidationError("box-cell", detail=f"setting {key!r} is not a 2x2 table of numbers")
    return rows


@dataclass(frozen=True, eq=False)
class NoSignalingBox:
    """Conditional probability table p(a, b | x, y).

    table maps the setting key "xy" (x, y in {1, 2}) to a 2x2 table [a][b]
    of real numbers with outcome index 0 = '+', 1 = '-'.  The box keeps it
    as the read-only float array p[x, y, a, b], settings counted from 0.
    Construction checks each setting in SETTINGS order (a 2x2 table of
    finite numbers, non-negative, normalized), then both no-signaling
    conditions, all at BOX_TOL.  The first fault it meets raises a
    ValidationError: box-settings, box-cell, box-nonnegative,
    box-normalization, no-signaling-alice or no-signaling-bob.
    """

    table: InitVar[Mapping]
    p: np.ndarray = field(init=False)

    def __post_init__(self, table):
        if not isinstance(table, Mapping):
            raise ValidationError("box-settings", detail="table must map settings to cells")
        p = np.empty((4, 2, 2))
        # A cell's four entries can sum past the float range: an inf excess, not a warning.
        with np.errstate(over="ignore"):
            for i, key in enumerate(SETTINGS):
                if key not in table:
                    raise ValidationError("box-settings", detail=f"missing setting {key!r}")
                cell = p[i] = _cell(key, table[key])
                if cell.min() < 0:
                    a, b = divmod(int(np.flatnonzero(cell < 0)[0]), 2)
                    raise ValidationError("box-nonnegative", float(-cell[a, b]),
                                          detail=f"p({a},{b}|{key})")
                _within("box-normalization", abs(float(cell.sum()) - 1.0), BOX_TOL, f"setting {key!r}")
        p = p.reshape(2, 2, 2, 2)

        # Alice's marginal must not depend on y, Bob's not on x.
        alice, bob = p.sum(axis=3), p.sum(axis=2)
        for invariant, gap, names in (
            ("no-signaling-alice", abs(alice[:, 0] - alice[:, 1]).T, "ax"),
            ("no-signaling-bob", abs(bob[0] - bob[1]).T, "by"),
        ):
            for (i, j), g in np.ndenumerate(gap):
                _within(invariant, g, BOX_TOL, f"{names[0]}={i}, {names[1]}={j + 1}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def correlators(self) -> np.ndarray:
        """t[x, y], the sum over outcomes of (a*b) p(a, b | x, y), settings counted from 0."""
        p = self.p
        return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def _box(p: np.ndarray) -> NoSignalingBox:
    """The box of an array p[x, y, a, b], through the validating constructor."""
    return NoSignalingBox(dict(zip(SETTINGS, p.reshape(4, 2, 2))))


def pr_box() -> NoSignalingBox:
    """Extremal no-signaling box: outcomes agree unless both settings are 2.

    In bit form, a xor b = x and y; every entry is 0 or 1/2 exactly.
    """
    x, y, a, b = np.indices((2, 2, 2, 2))
    return _box(0.5 * ((a ^ b) == (x & y)))


def local_deterministic_boxes() -> list[NoSignalingBox]:
    """All sixteen deterministic local strategies: outcome bits (alpha_1, alpha_2,
    beta_1, beta_2) fixed per setting, Bob's second bit varying fastest."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    return [_box(1.0 * ((a == s[x]) & (b == s[2 + y])))
            for s in map(np.array, itertools.product((0, 1), repeat=4))]


@dataclass(frozen=True)
class ChshReport:
    """CHSH combination of four correlators: a plain record, which _report
    fills from one table, so value is the CHSH sum of terms by construction.

    value        -- |t11 + t12 + t21 - t22|
    terms        -- (t11, t12, t21, t22)
    bound_lambda -- the comparison bound 2/lambda_opt for this report:
                    2*sqrt(2) for sharp quantum/box values, 2 when one
                    wing has been smeared to joint measurability
    within_bound -- value <= bound_lambda + CHSH_BOUND_SLACK
    """

    value: float
    terms: tuple[float, float, float, float]
    bound_lambda: float
    within_bound: bool


def _table(state: DensityMatrix, alice, bob, lam=None) -> np.ndarray:
    """t[x, y] = Tr[state (A_x (x) B_y)] with A = E_yes - E_no, each argument
    guarded once; Alice's observables smeared by lam if given, and an (r, 1, 1)
    lam gives an (r, 2, 2) stack of tables."""
    alice = [_require(a, DichotomicObservable) for a in alice]
    bob = [_require(b, DichotomicObservable) for b in bob]
    d = _require(state, DensityMatrix).dim
    dims = [a.dim for a in alice], [b.dim for b in bob]
    if {da * db for da, db in itertools.product(*dims)} != {d}:
        pair = next(p for p in itertools.product(*dims) if p[0] * p[1] != d)
        raise ValidationError("same-dimension", detail=f"incompatible dimensions {(d, *pair)}")
    # np.stack(..., axis=-3) at a quarter of its cost: the axis of an (r, 1, 1) lam comes first.
    x = np.array([a.difference() if lam is None else np.subtract(*_smeared_matrices(a, lam))
                  for a in alice]).swapaxes(0, -3)
    y = np.array([b.difference() for b in bob])
    # A_x (x) B_y, entry by entry the single product x[i, j] y[k, l], as np.kron.
    op = x[..., :, None, :, None, :, None] * y[:, None, :, None, :]
    op = op.reshape(op.shape[:-4] + state.matrix.shape)
    return (state.matrix @ op).trace(axis1=-2, axis2=-1).real


def _chsh(t: np.ndarray):
    """|t11 + t12 + t21 - t22| of a table t[..., x, y]."""
    return np.abs(t[..., 0, 0] + t[..., 0, 1] + t[..., 1, 0] - t[..., 1, 1])


def _report(t: np.ndarray, bound: float) -> ChshReport:
    terms = t11, t12, t21, t22 = tuple(t.ravel().tolist())
    value = abs(t11 + t12 + t21 - t22)  # _chsh's float operations, in its order
    return ChshReport(value=value, terms=terms, bound_lambda=bound,
                      within_bound=value <= bound + CHSH_BOUND_SLACK)


def chsh(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable,
) -> ChshReport:
    """Sharp CHSH report; compared against the bound 2*sqrt(2)."""
    return _report(_table(state, (a1, a2), (b1, b2)), TSIRELSON_BOUND)


def smeared_chsh(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable, lam,
) -> ChshReport:
    """CHSH with unsharpness applied to Alice's observables only.

    The value equals lam times the sharp value (each correlator scales
    linearly), so for lam <= 1/sqrt(2) any quantum input lands at or
    below the local bound 2, which is this report's comparison bound.
    """
    return _report(_table(state, (a1, a2), (b1, b2), validate_lambda(lam)), LOCAL_BOUND)


def smeared_chsh_values(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable, lams,
) -> np.ndarray:
    """smeared_chsh(state, a1, a2, b1, b2, lam).value for each lam of a
    sequence, each lam checked, the tables of all of them one stack."""
    lams = _lambda_array(lams)[:, None, None]
    return _chsh(_table(state, (a1, a2), (b1, b2), lams))


def box_chsh(box: NoSignalingBox) -> ChshReport:
    """CHSH of a conditional-probability table; exact on the built-in boxes."""
    return _report(_require(box, NoSignalingBox).correlators(), TSIRELSON_BOUND)


def singlet() -> DensityMatrix:
    """The two-qubit singlet (|01> - |10>) / sqrt(2)."""
    return DensityMatrix.pure(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def optimal_settings() -> tuple[
    DichotomicObservable, DichotomicObservable, DichotomicObservable, DichotomicObservable
]:
    """Alice z, x; Bob (z+x)/sqrt(2), (z-x)/sqrt(2): saturates 2*sqrt(2) on the singlet."""
    r = 1.0 / math.sqrt(2.0)
    return tuple(BlochVector(v).observable() for v in ((0, 0, 1), (1, 0, 0), (r, 0, r), (-r, 0, r)))
