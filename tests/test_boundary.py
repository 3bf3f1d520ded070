"""Every public callable, called with a wrong value in place of each of its
arguments in turn, returns or raises a ValidationError, never another
UnsharpJointError nor a bare Python exception; a numpy RuntimeWarning is one
too, as the suite's filterwarnings setting turns it into an error.

VALID holds one valid call per callable of unsharpjoint.__all__ (and per
public alternate constructor); WRONG holds the wrong values.  A name added to
__all__ needs a row here, or a place in NOT_INPUTS.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

import unsharpjoint as uj
from unsharpjoint.bell import SETTINGS

_EFFECT = uj.Effect(np.diag([0.3, 0.6]))
_OBS = uj.DichotomicObservable.from_yes_effect(_EFFECT)
_SMEARED = uj.smear(_OBS, 0.5)
_WITNESS = uj.povm_joint_observable(_OBS, _OBS, 0.5).witness
_P, _Q = uj.Projector.from_matrix(np.diag([1.0, 0.0])), uj.Projector.from_matrix(np.full((2, 2), 0.5))
_M, _N = uj.BlochVector([0.0, 0.0, 1.0]), uj.BlochVector([1.0, 0.0, 0.0])
_MIXED = uj.DensityMatrix(np.eye(2) / 2)

# name -> the positional arguments of one valid call.
VALID = {
    "Block": (2, 1, 1, 0.5),
    "BlockDecomposition": (np.eye(2), (uj.Block(1, 1, 1, 1.0), uj.Block(1, 0, 0, 0.0))),
    "BlochVector": ([0.0, 0.0, 1.0],),
    "BlochVector.normalized": ([0.0, 0.0, 2.0],),
    "ChshReport": (2.0, (0.5, 0.5, 0.5, -0.5), 2.0, True),
    "DensityMatrix": (np.eye(2) / 2,),
    "DensityMatrix.pure": ([1.0, 0.0],),
    "DichotomicObservable": (_EFFECT, _EFFECT.complement()),
    "DichotomicObservable.from_yes_effect": (np.diag([0.3, 0.6]),),
    "Effect": (np.diag([0.3, 0.6]),),
    "FeasibilityReport": ("no", None, 0.0, -0.01, 0),
    "JointObservable": _WITNESS.effects,
    "NoSignalingBox": (dict(zip(SETTINGS, uj.pr_box().p.reshape(4, 2, 2).tolist())),),
    "Projector": (np.diag([1.0, 0.0]), 1),
    "Projector.from_matrix": (np.diag([1.0, 0.0]),),
    "box_chsh": (uj.pr_box(),),
    "check_joint": (_WITNESS, _SMEARED, _SMEARED),
    "chsh": (uj.singlet(), _OBS, _OBS, _OBS, _OBS),
    "compress": (np.eye(4) / 2,),
    "criterion_value": (_M, _N, 0.5),
    "feasibility_oracle": (_SMEARED, _SMEARED),
    "lambda_opt_search": (_M, _N),
    "local_deterministic_boxes": (),
    "matrix_from_json": (uj.matrix_to_json(np.eye(2)),),
    "matrix_to_json": (np.eye(2),),
    "mean_value": (_OBS, _MIXED),
    "neumark_dilate": (_OBS,),
    "optimal_settings": (),
    "povm_joint_observable": (_OBS, _OBS, 0.5),
    "pr_box": (),
    "pvm_joint_observable": (_P, _Q, 0.5),
    "qubit_joint_observable": (_M, _N, 0.5),
    "singlet": (),
    "smear": (_OBS, 0.5),
    "smeared_chsh": (uj.singlet(), _OBS, _OBS, _OBS, _OBS, 0.5),
    "two_projector_blocks": (_P, _Q),
    "validate_lambda": (0.5,),
    "worst_case_pair": (2026,),
}

# Callables of __all__ left out: the error types, and one result record.
# Result records are plain and check nothing; the two with rows above used
# to re-check their fields, and a check put back must refuse each wrong value typed.
NOT_INPUTS = {
    "JointResiduals", "ParseError", "UnsharpJointError", "ValidationError",
}

WRONG = (
    None, "x", "1", 1.5, True, -1, 0, np.eye(2) / 2, np.eye(3) / 3, np.full((2, 2), np.nan),
    [], {}, [[1.0, 2.0], [3.0]], 10**400, 10**5000, Fraction(10**5000, 3), object(), np.zeros(3),
    np.diag([1e308, 1e308]), np.full((2, 2), 1e308), np.array([[0.0, 1e308], [-1e308, 0.0]]),
    np.array([[0.5, 0, 0, 1e308], [0, 0, 0, 0], [0, 0, 0, 0], [1e308, 0, 0, 0.5]]),
    [1e308, 1e308, 0.0],
)


def test_every_public_callable_has_a_row():
    public = {name for name in uj.__all__ if callable(getattr(uj, name))}
    assert {name.split(".")[0] for name in VALID} | NOT_INPUTS == public
    assert not NOT_INPUTS & set(VALID)


@pytest.mark.parametrize("name", VALID)
def test_a_wrong_argument_is_refused_typed(name):
    call = functools.reduce(getattr, name.split("."), uj)
    args = VALID[name]
    call(*args)
    escapes = []
    for i in range(len(args)):
        for wrong in WRONG:
            try:
                call(*args[:i], wrong, *args[i + 1:])
            except uj.ValidationError:
                pass
            except Exception as exc:  # noqa: BLE001 -- any other exception is an escape
                escapes.append(f"argument {i} = {wrong!r}: {type(exc).__name__}: {exc}")
    assert not escapes
