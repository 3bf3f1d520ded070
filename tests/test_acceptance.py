"""Acceptance gate: every exit criterion at its stated tolerance.

Runs each criterion from unsharpjoint.acceptance and prints its pass/fail
line (visible with pytest -s or in the captured output on failure).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from unsharpjoint import acceptance
from unsharpjoint.acceptance import CRITERIA, run


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion-{n}-{name}" for n, name, *_ in CRITERIA])
def test_acceptance_criterion(criterion):
    result = run(*criterion)
    print(result.line)
    assert result.passed, result.line


_TIMED = [(number, bound) for number, _, _, bound in CRITERIA if bound < math.inf]


def test_only_criteria_1_and_2_are_timed():
    assert _TIMED == [(1, 60.0), (2, 120.0)]


@pytest.mark.parametrize("number,bound", _TIMED, ids=[f"criterion-{n}" for n, _ in _TIMED])
@pytest.mark.parametrize("elapsed,passed", [(-1.0, True), (0.0, False), (1.0, False)],
                         ids=["inside", "at-bound", "past-bound"])
def test_time_bound(number, bound, elapsed, passed, monkeypatch):
    # A stub check that passes, on a clock that reads 0 before it and
    # bound + elapsed after it.
    clock = iter([0.0, bound + elapsed])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = run(number, "stub", lambda: (True, "detail"), bound)
    assert result.passed is passed
    assert result.runtime == bound + elapsed
    assert result.line.startswith("PASS" if passed else "FAIL")
    assert result.line.endswith(f"criterion {number} (stub): detail [{bound + elapsed:.1f}s]")


def test_a_drifting_smearing_map_fails_criterion_9(monkeypatch):
    # A smear that misses lam by a relative 1e-9 must give a FAIL line with the
    # measured drift, not an error.  The random draws are stubbed to one
    # observable with mean 1 and its eigenstate, so the 10^4 triples run fast.
    obs = acceptance.DichotomicObservable.from_yes_effect(np.diag([1.0, 0.0]))
    state = acceptance.DensityMatrix.pure([1.0, 0.0])
    real = acceptance.smear
    monkeypatch.setattr(acceptance, "_random_effect", lambda rng, d: obs.yes_effect)
    monkeypatch.setattr(acceptance, "_random_state", lambda rng, d: state)
    monkeypatch.setattr(acceptance, "smear", lambda o, lam: real(o, lam * (1 - 1e-9)))
    result = run(*CRITERIA[8])
    assert not result.passed
    assert result.line.startswith(
        "FAIL criterion 9 (smeared-mean scaling): max |smeared - lam*sharp| ")
    assert 5e-10 < float(result.detail.split()[4]) <= 1e-9
