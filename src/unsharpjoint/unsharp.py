"""Unsharp (fuzzy) smearing of dichotomic observables and mean values.

A sharp yes/no measurement is blurred by mixing its outcome rule with the
complementary one: the yes-effect becomes ((1+lam)/2) E_yes +
((1-lam)/2) E_no.  At lam = 1 the observable is unchanged; as lam
decreases the two outcomes become less distinguishable.  Mean values scale
linearly: the smeared observable's mean is exactly lam times the sharp
mean, for every state.  lam is a plain real number; every function of
the package that takes one checks it by validate_lambda.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix, DichotomicObservable, Effect, _frozen, _got, _require, _same_dim


def validate_lambda(lam) -> float:
    """Check an unsharpness as a real number (not a bool) in (0, 1], and
    nonzero as a float; lam = 0 erases all information about the input."""
    if type(lam) is float and 0 < lam <= 1:  # the common case, without the ABC check
        return lam
    if (isinstance(lam, bool) or not isinstance(lam, numbers.Real)
            or not 0 < lam <= 1 or not float(lam) > 0):
        raise ValidationError("lambda-in-(0,1]", detail=_got(lam))
    return float(lam)


def _lambda_array(lams) -> np.ndarray:
    """Each lam of a sequence checked by validate_lambda, as a float array."""
    try:
        lams = iter(lams)
    except TypeError:
        raise ValidationError("lambda-sequence", detail=_got(lams)) from None
    return np.array([validate_lambda(lam) for lam in lams])


def smear(obs: DichotomicObservable, lam) -> DichotomicObservable:
    """Mix each effect of obs with its complement at weight (1 - lam)/2.

    The output is a valid dichotomic observable for every lam in (0, 1]:
    each eigenvalue a of the yes-effect maps to (1 - lam)/2 + lam * a,
    which stays inside [0, 1].  The complement relation yes + no = I is
    preserved exactly as constructed, so the outputs are built unchecked.
    """
    yes, no = _smeared_matrices(_require(obs, DichotomicObservable), validate_lambda(lam))
    return _frozen(DichotomicObservable, yes_effect=_frozen(Effect, matrix=yes),
                   no_effect=_frozen(Effect, matrix=no))


def _smeared_matrices(obs: DichotomicObservable, lam) -> tuple[np.ndarray, np.ndarray]:
    """The yes and no matrices of obs smeared by lam; (r, d, d) stacks for an (r, 1, 1) lam."""
    wp, wm = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    y, n = obs.yes_effect.matrix, obs.no_effect.matrix
    return wp * y + wm * n, wm * y + wp * n


def mean_value(obs: DichotomicObservable, state: DensityMatrix) -> float:
    """p_yes - p_no = Tr[state (E_yes - E_no)]; always in [-1, 1]."""
    _same_dim(_require(obs, DichotomicObservable).dim, _require(state, DensityMatrix).dim)
    return float(np.trace(state.matrix @ obs.difference()).real)

