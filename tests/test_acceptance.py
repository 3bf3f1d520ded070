"""Acceptance gate: every exit criterion at its stated tolerance.

Runs each criterion from unsharpjoint.acceptance and prints its pass/fail
line (visible with pytest -s or in the captured output on failure).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from unsharpjoint import Block, BlockDecomposition, acceptance
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


def _split(dec):
    """Each 2-dim block reported as two 1-dim blocks."""
    return [Block(1, b.rank_p, b.rank_q, b.overlap) for b in dec.blocks for _ in range(b.dim)]


def _merged(dec):
    """The first two blocks reported as one."""
    first, second, *rest = dec.blocks
    return [Block(first.dim + second.dim, 1, 1, 0.0), *rest]


@pytest.mark.parametrize("relabel, fails_on", [
    (_split, "off-block"),
    (lambda dec: dec.blocks[::-1], "off-block"),
    (_merged, "max block dim"),
], ids=["split", "reversed", "merged"])
def test_mislabelled_blocks_fail_criterion_6(monkeypatch, relabel, fails_on):
    # Criterion 6 builds its mask from the blocks' dims, not from the
    # package's own: a builder whose blocks do not match its unitary's
    # columns must give a FAIL line, naming what went past its bound.
    real = acceptance.two_projector_blocks

    def relabelled(p, q):
        dec = real(p, q)
        return BlockDecomposition(dec.unitary, tuple(relabel(dec)))

    monkeypatch.setattr(acceptance, "two_projector_blocks", relabelled)
    result = run(*CRITERIA[5])
    assert not result.passed
    assert result.line.startswith("FAIL criterion 6 (two-projector block round-trip): ")
    detail = dict(part.rsplit(" ", 1) for part in result.detail.split(" (tol")[0].split(", "))
    if fails_on == "max block dim":
        assert int(detail[fails_on]) > 2
    else:
        assert float(detail[fails_on]) > 1e-9
