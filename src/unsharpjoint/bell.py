"""Bipartite correlations, CHSH values, and no-signaling boxes.

Three layers of the same CHSH expression
|t11 + t12 + t21 - t22| live here:

* quantum correlators Tr[state (A x B)] for density matrices and
  dichotomic observables, bounded by 2*sqrt(2);
* the smeared variant with unsharpness applied to one wing only, whose
  value is exactly lam times the sharp value, so lam = 1/sqrt(2) pins
  the smeared expression at the local bound 2;
* bare conditional-probability tables (boxes), where the algebraic
  maximum 4 is reached by the PR box.

Box tables keep exact rational entries whenever the inputs are rational
(deterministic and PR boxes), so CHSH = 4 and CHSH = 2 come out exactly.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real

import numpy as np

from .errors import DimensionMismatch, InvalidBox, ValidationError
from .operators import DensityMatrix, DichotomicObservable, PAULI_X, PAULI_Z, identity
from .unsharp import _smeared_matrices, validate_lambda

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
LOCAL_BOUND = 2.0

SETTINGS = ("11", "12", "21", "22")
_EXACT_EPS = 1e-12


def _exactify(x):
    """Keep rational inputs inside the float range rational; other finite
    reals become float."""
    if isinstance(x, Rational):
        if abs(x) <= sys.float_info.max:
            return Fraction(x)
    elif isinstance(x, Real) and math.isfinite(x):
        return float(x)
    raise TypeError("not a finite number")


def _cell(key: str, cell) -> tuple:
    """One setting's 2x2 table [a][b] of numbers, or InvalidBox."""
    try:
        rows = tuple(tuple(_exactify(v) for v in row) for row in cell)
    except TypeError:
        rows = ()
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise InvalidBox("box-cell", detail=f"setting {key!r} is not a 2x2 table of numbers")
    return rows


@dataclass(frozen=True, eq=False)
class NoSignalingBox:
    """Conditional probability table p(a, b | x, y).

    table maps the setting key "xy" (x, y in {1, 2}) to a 2x2 nested
    tuple indexed [a][b] with outcome index 0 = '+', 1 = '-'.  Entries are
    Fractions when given as rationals, floats otherwise.  Construction
    checks positivity, normalization per setting, and both no-signaling
    conditions at 1e-12.
    """

    table: dict

    def __post_init__(self):
        clean = {}
        if not isinstance(self.table, Mapping):
            raise InvalidBox("box-settings", detail="table must map settings to cells")
        for key in SETTINGS:
            if key not in self.table:
                raise InvalidBox("box-settings", detail=f"missing setting {key!r}")
            rows = _cell(key, self.table[key])
            for a in range(2):
                for b in range(2):
                    if rows[a][b] < 0:
                        raise InvalidBox(
                            "box-nonnegative",
                            float(-rows[a][b]),
                            detail=f"p({a},{b}|{key})",
                        )
            total = sum(rows[a][b] for a in range(2) for b in range(2))
            # Four rational cells inside the float range can sum past it.
            excess = abs(float(total) - 1.0) if total <= sys.float_info.max else math.inf
            if excess > _EXACT_EPS:
                raise InvalidBox("box-normalization", excess, detail=f"setting {key!r}")
            clean[key] = rows
        object.__setattr__(self, "table", clean)

        # Alice's marginal must not depend on y, Bob's not on x.
        for a in range(2):
            for x in (1, 2):
                m1 = self._alice_marginal(a, x, 1)
                m2 = self._alice_marginal(a, x, 2)
                if abs(float(m1 - m2)) > _EXACT_EPS:
                    raise InvalidBox(
                        "no-signaling-alice",
                        abs(float(m1 - m2)),
                        detail=f"a={a}, x={x}",
                    )
        for b in range(2):
            for y in (1, 2):
                m1 = self._bob_marginal(b, 1, y)
                m2 = self._bob_marginal(b, 2, y)
                if abs(float(m1 - m2)) > _EXACT_EPS:
                    raise InvalidBox(
                        "no-signaling-bob",
                        abs(float(m1 - m2)),
                        detail=f"b={b}, y={y}",
                    )

    def _alice_marginal(self, a: int, x: int, y: int):
        cell = self.table[f"{x}{y}"]
        return cell[a][0] + cell[a][1]

    def _bob_marginal(self, b: int, x: int, y: int):
        cell = self.table[f"{x}{y}"]
        return cell[0][b] + cell[1][b]

    def prob(self, a: int, b: int, x: int, y: int):
        """p(a, b | x, y) with outcome signs a, b in {+1, -1}."""
        return self.table[f"{x}{y}"][(1 - a) // 2][(1 - b) // 2]

    def correlator(self, x: int, y: int):
        """Sum over outcomes of (a*b) p(a, b | x, y); exact if the table is."""
        cell = self.table[f"{x}{y}"]
        return cell[0][0] - cell[0][1] - cell[1][0] + cell[1][1]

    def to_json(self) -> dict:
        return {
            "p": {
                key: [[float(self.table[key][a][b]) for b in range(2)] for a in range(2)]
                for key in SETTINGS
            }
        }


def pr_box() -> NoSignalingBox:
    """Extremal no-signaling box: outcomes agree unless both settings are 2.

    In bit form, a xor b = x and y; every entry is 0 or 1/2 exactly.
    """
    half = Fraction(1, 2)
    table = {}
    for x in (1, 2):
        for y in (1, 2):
            anti = x == 2 and y == 2
            cell = [[Fraction(0)] * 2 for _ in range(2)]
            for a in range(2):
                for b in range(2):
                    agree = a == b
                    cell[a][b] = half if (agree != anti) else Fraction(0)
            table[f"{x}{y}"] = cell
    return NoSignalingBox(table)


def white_noise_box() -> NoSignalingBox:
    q = Fraction(1, 4)
    return NoSignalingBox({key: [[q, q], [q, q]] for key in SETTINGS})


def deterministic_box(alice: tuple[int, int], bob: tuple[int, int]) -> NoSignalingBox:
    """Local deterministic box: outcome signs fixed per setting.

    alice[x-1] and bob[y-1] are the +/-1 outcomes for settings x, y.
    """
    for v in (*alice, *bob):
        if v not in (1, -1):
            raise InvalidBox("deterministic-outcomes", detail=f"got {v!r}")
    table = {}
    for x in (1, 2):
        for y in (1, 2):
            cell = [[Fraction(0)] * 2 for _ in range(2)]
            cell[(1 - alice[x - 1]) // 2][(1 - bob[y - 1]) // 2] = Fraction(1)
            table[f"{x}{y}"] = cell
    return NoSignalingBox(table)


def local_deterministic_boxes() -> list[NoSignalingBox]:
    """All sixteen deterministic local strategies."""
    signs = (1, -1)
    return [
        deterministic_box((a1, a2), (b1, b2))
        for a1 in signs
        for a2 in signs
        for b1 in signs
        for b2 in signs
    ]


@dataclass(frozen=True)
class ChshReport:
    """CHSH combination of four correlators.

    value        -- |t11 + t12 + t21 - t22|
    terms        -- (t11, t12, t21, t22)
    bound_lambda -- the comparison bound 2/lambda_opt for this report:
                    2*sqrt(2) for sharp quantum/box values, 2 when one
                    wing has been smeared to joint measurability
    within_bound -- value <= bound_lambda + 1e-9
    """

    value: float
    terms: tuple[float, float, float, float]
    bound_lambda: float
    within_bound: bool

    def __post_init__(self):
        t11, t12, t21, t22 = self.terms
        recomputed = abs(t11 + t12 + t21 - t22)
        if abs(self.value - recomputed) > 1e-12:
            raise ValidationError("chsh-recomputation", abs(self.value - recomputed))

    @property
    def signed(self) -> float:
        t11, t12, t21, t22 = self.terms
        return t11 + t12 + t21 - t22


def _report(terms, bound: float) -> ChshReport:
    value = float(abs(terms[0] + terms[1] + terms[2] - terms[3]))
    return ChshReport(value=value, terms=tuple(float(t) for t in terms), bound_lambda=bound,
                      within_bound=value <= bound + 1e-9)


def _correlations(state: DensityMatrix, x: np.ndarray, y: np.ndarray):
    """Tr[state (x (x) y)] for Alice's contrast x (or a stack of them) and Bob's y."""
    if state.dim != x.shape[-1] * y.shape[-1]:
        raise DimensionMismatch(state.dim, x.shape[-1], y.shape[-1])
    # x (x) y, entry by entry the single product x[i, j] y[k, l], as np.kron.
    op = x[..., :, None, :, None] * y[None, :, None, :]
    op = op.reshape(x.shape[:-2] + state.matrix.shape)
    return np.trace(state.matrix @ op, axis1=-2, axis2=-1).real


def correlation(
    state: DensityMatrix, a: DichotomicObservable, b: DichotomicObservable
) -> float:
    """Tr[state (A x B)] with A = E_yes - E_no on each wing."""
    return float(_correlations(state, a.difference(), b.difference()))


def chsh(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable,
) -> ChshReport:
    """Sharp CHSH report; compared against the bound 2*sqrt(2)."""
    terms = tuple(correlation(state, a, b) for a in (a1, a2) for b in (b1, b2))
    return _report(terms, TSIRELSON_BOUND)


def smeared_chsh(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable, lam,
) -> ChshReport:
    """CHSH with unsharpness applied to Alice's observables only.

    The value equals lam times the sharp value (each correlator scales
    linearly), so for lam <= 1/sqrt(2) any quantum input lands at or
    below the local bound 2, which is this report's comparison bound.
    """
    lam = validate_lambda(lam)
    return _report(_smeared_terms(state, a1, a2, b1, b2, lam), LOCAL_BOUND)


def smeared_chsh_values(
    state: DensityMatrix, a1: DichotomicObservable, a2: DichotomicObservable,
    b1: DichotomicObservable, b2: DichotomicObservable, lams,
) -> np.ndarray:
    """smeared_chsh(state, a1, a2, b1, b2, lam).value for each lam of a
    sequence, each lam checked, the correlators of all of them one stack."""
    lams = np.array([validate_lambda(lam) for lam in lams])[:, None, None]
    t11, t12, t21, t22 = _smeared_terms(state, a1, a2, b1, b2, lams)
    return np.abs(t11 + t12 + t21 - t22)


def _smeared_terms(state, a1, a2, b1, b2, lam) -> tuple:
    """(t11, t12, t21, t22), Alice smeared by lam; arrays of length r for an (r, 1, 1) lam."""
    xs = [np.subtract(*_smeared_matrices(a, lam)) for a in (a1, a2)]
    return tuple(_correlations(state, x, b.difference()) for x in xs for b in (b1, b2))


def box_chsh(box: NoSignalingBox) -> ChshReport:
    """CHSH of a conditional-probability table; exact on rational boxes."""
    terms = tuple(box.correlator(x, y) for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)))
    return _report(terms, TSIRELSON_BOUND)


def singlet() -> DensityMatrix:
    """The two-qubit singlet (|01> - |10>) / sqrt(2)."""
    return DensityMatrix.pure(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def _observable_of(matrix) -> DichotomicObservable:
    """Sharp observable of a +/-1-valued Hermitian: yes-effect (I + M)/2."""
    return DichotomicObservable.from_yes_effect((identity(2) + matrix) / 2.0)


def optimal_settings() -> tuple[
    DichotomicObservable, DichotomicObservable, DichotomicObservable, DichotomicObservable
]:
    """Alice z, x; Bob (z+x)/sqrt(2), (z-x)/sqrt(2): saturates 2*sqrt(2) on the singlet."""
    s2 = math.sqrt(2.0)
    return (
        _observable_of(PAULI_Z),
        _observable_of(PAULI_X),
        _observable_of((PAULI_Z + PAULI_X) / s2),
        _observable_of((PAULI_Z - PAULI_X) / s2),
    )
