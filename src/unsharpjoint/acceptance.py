"""Acceptance suite: the nine exit criteria of this package, runnable as
`uj acceptance` or through tests/test_acceptance.py.

Each criterion function is self-contained, deterministic (fixed seeds)
and returns its verdict and a detail line of the measured quantities.
CRITERIA holds each one's number, name and time bound; run() times one
and builds its AcceptanceResult.  Tolerances are pinned here, not
configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import (
    box_chsh,
    chsh,
    local_deterministic_boxes,
    optimal_settings,
    pr_box,
    singlet,
    smeared_chsh,
    smeared_chsh_values,
)
from .decompose import compress, neumark_dilate, two_projector_blocks
from .joint import (
    LAMBDA_OPT,
    check_joint,
    criterion_value,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    pvm_joint_observable,
    qubit_joint_observable,
    worst_case_pair,
)
from .operators import BlochVector, DensityMatrix, DichotomicObservable, Effect, Projector
from .unsharp import mean_value, smear


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail} [{self.runtime:.1f}s]"


def _random_projector(rng, dim: int, rank: int) -> Projector:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    cols = q[:, :rank]
    return Projector(cols @ cols.conj().T, rank=rank)


def _random_effect(rng, dim: int) -> Effect:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    eigs = rng.uniform(0.0, 1.0, size=dim)
    return Effect((q * eigs) @ q.conj().T)


def _random_state(rng, dim: int) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.pure(v)


def criterion_1_lambda_opt() -> tuple[bool, str]:
    """The worst case, a random orthogonal Bloch pair, lands on 1/sqrt(2)
    within 1e-3, in under 60 s."""
    value = lambda_opt_search(*worst_case_pair(2026))
    err = abs(value - LAMBDA_OPT)
    passed = err <= 1e-3
    return passed, f"value {value:.6f}, |err| {err:.2e} (tol 1e-3)"


def criterion_2_tsirelson() -> tuple[bool, str]:
    """Singlet saturates 2*sqrt(2); random sweep never exceeds it."""
    bound = 2.0 * math.sqrt(2.0)
    state = singlet()
    a1, a2, b1, b2 = optimal_settings()
    saturation = chsh(state, a1, a2, b1, b2).value
    sat_err = abs(saturation - bound)

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10_000):
        rho = _random_state(rng, 4)
        obs = [BlochVector.normalized(rng.normal(size=3)).observable() for _ in range(4)]
        value = chsh(rho, obs[0], obs[1], obs[2], obs[3]).value
        worst = max(worst, value)
    passed = sat_err <= 1e-6 and worst <= bound + 1e-6
    return passed, (
        f"saturation err {sat_err:.2e} (tol 1e-6), sweep max {worst:.9f} <= {bound:.9f}+1e-6"
    )


def criterion_3_saturation_at_lambda_opt() -> tuple[bool, str]:
    """Smearing one wing by 1/sqrt(2) pins the singlet CHSH at exactly 2."""
    state = singlet()
    a1, a2, b1, b2 = optimal_settings()
    at_opt = smeared_chsh(state, a1, a2, b1, b2, LAMBDA_OPT).value
    err = abs(at_opt - 2.0)

    lams = np.linspace(0.01, LAMBDA_OPT, 250)
    worst = float(np.max(smeared_chsh_values(state, a1, a2, b1, b2, lams)))
    passed = err <= 1e-9 and worst <= 2.0 + 1e-9
    return passed, (
        f"value at lambda-opt {at_opt:.9f} (err {err:.2e}, tol 1e-9), grid max {worst:.9f}"
    )


def criterion_4_witness_validity() -> tuple[bool, str]:
    """1000 random qubit pairs at lam=0.70: witness residuals within 1e-9."""
    rng = np.random.default_rng(404)
    lam = 0.70
    worst_res = 0.0
    worst_eig = math.inf
    feasible = 0
    for _ in range(1000):
        m = BlochVector.normalized(rng.normal(size=3))
        n = BlochVector.normalized(rng.normal(size=3))
        rep = qubit_joint_observable(m, n, lam)
        if not rep:
            continue
        feasible += 1
        res = check_joint(
            rep.witness, smear(m.observable(), lam), smear(n.observable(), lam)
        )
        worst_res = max(worst_res, res.marginal_max)
        worst_eig = min(worst_eig, res.min_eigenvalue)
    passed = feasible == 1000 and worst_res <= 1e-9 and worst_eig >= -1e-9
    return passed, (
        f"{feasible}/1000 feasible, max residual {worst_res:.2e} (tol 1e-9), "
        f"min eig {worst_eig:.2e} (>= -1e-9)"
    )


def criterion_5_oracle_agreement() -> tuple[bool, str]:
    """Closed form vs alternating projections on 1000 samples, 99% agreement."""
    rng = np.random.default_rng(505)
    checked = agreed = banded = iterations = certified = 0
    for _ in range(1000):
        m = BlochVector.normalized(rng.normal(size=3))
        n = BlochVector.normalized(rng.normal(size=3))
        lam = float(rng.uniform(0.3, 0.95))
        cval = criterion_value(m, n, lam)
        if abs(cval - 2.0) < 0.02:
            banded += 1
            continue
        closed = "yes" if cval <= 2.0 else "no"
        rep = feasibility_oracle(smear(m.observable(), lam), smear(n.observable(), lam))
        checked += 1
        iterations += rep.iterations
        certified += rep.certificate is not None
        if rep.feasible == closed:
            agreed += 1
    rate = agreed / checked if checked else 0.0
    passed = rate >= 0.99
    return passed, (
        f"{agreed}/{checked} outside band agree ({rate:.1%}, need >=99%), {banded} in band; "
        f"{iterations} oracle iterations, {certified} certified 'no'"
    )


def criterion_6_block_roundtrip() -> tuple[bool, str]:
    """50 random projector pairs: dim<=2 blocks, residuals within 1e-9."""
    rng = np.random.default_rng(606)
    worst_off = worst_rec = 0.0
    max_dim = 0
    for _ in range(50):
        d = int(rng.integers(3, 17))
        p = _random_projector(rng, d, int(rng.integers(1, d)))
        q = _random_projector(rng, d, int(rng.integers(1, d)))
        dec = two_projector_blocks(p, q)
        dims = [b.dim for b in dec.blocks]
        max_dim = max(max_dim, *dims)
        ids = np.repeat(np.arange(len(dims)), dims)  # each column's block, from the dims alone
        u, off = dec.unitary, ids[:, None] != ids
        for m in (p.matrix, q.matrix):
            conj = u.conj().T @ m @ u
            worst_off = max(worst_off, float(np.abs(conj[off]).max(initial=0.0)))
            conj[off] = 0.0  # U . blockdiag(restrictions) . U^dagger rebuilds m
            worst_rec = max(worst_rec, float(np.abs(u @ conj @ u.conj().T - m).max()))
    passed = max_dim <= 2 and worst_off <= 1e-9 and worst_rec <= 1e-9
    return passed, (
        f"max block dim {max_dim}, off-block {worst_off:.2e}, "
        f"reconstruction {worst_rec:.2e} (tol 1e-9)"
    )


def criterion_7_dilation_pipeline() -> tuple[bool, str]:
    """Dilate/compress identity at 1e-12; full POVM pipeline at 1e-9."""
    rng = np.random.default_rng(707)
    worst_rt = 0.0
    for d in (2, 4, 8):
        for _ in range(100):
            e = _random_effect(rng, d)
            proj = neumark_dilate(DichotomicObservable.from_yes_effect(e))
            back = compress(proj.as_effect())
            worst_rt = max(worst_rt, float(np.max(np.abs(back.matrix - e.matrix))))

    worst_res = 0.0
    worst_eig = math.inf
    for i in range(200):
        d = 2 if i < 100 else 3
        o1 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
        o2 = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
        rep = povm_joint_observable(o1, o2, LAMBDA_OPT)
        res = check_joint(rep.witness, smear(o1, LAMBDA_OPT), smear(o2, LAMBDA_OPT))
        worst_res = max(worst_res, res.marginal_max)
        worst_eig = min(worst_eig, res.min_eigenvalue)
    passed = worst_rt <= 1e-12 and worst_res <= 1e-9 and worst_eig >= -1e-9
    return passed, (
        f"round-trip {worst_rt:.2e} (tol 1e-12), pipeline residual {worst_res:.2e} "
        f"(tol 1e-9), min eig {worst_eig:.2e}"
    )


def criterion_8_box_layer() -> tuple[bool, str]:
    """PR box at exactly 4, deterministic boxes at exactly 2, classical lam=1."""
    pr_value = box_chsh(pr_box()).value
    det_reports = [box_chsh(b) for b in local_deterministic_boxes()]
    det_ok = all(r.value <= 2.0 for r in det_reports)
    det_max = max(r.value for r in det_reports)

    # Commuting projective pair: jointly measurable with no smearing at all.
    p = Projector.from_matrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    q = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
    classical = pvm_joint_observable(p, q, 1.0)
    passed = pr_value == 4.0 and det_ok and bool(classical)
    return passed, (
        f"PR CHSH {pr_value} (== 4), deterministic max {det_max} (<= 2 exactly), "
        f"commuting pair at lambda=1: {classical.feasible}"
    )


def criterion_9_mean_scaling() -> tuple[bool, str]:
    """10^4 random triples: smeared mean equals lam times sharp mean."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for i in range(10_000):
        d = 2 if i % 5 else int(rng.integers(2, 5))
        obs = DichotomicObservable.from_yes_effect(_random_effect(rng, d))
        state = _random_state(rng, d)
        lam = 1.0 - float(rng.uniform(0.0, 1.0))  # uniform over (0, 1]
        worst = max(worst, abs(mean_value(smear(obs, lam), state) - lam * mean_value(obs, state)))
    passed = worst <= 1e-12
    return passed, f"max |smeared - lam*sharp| {worst:.2e} over 10^4 triples (tol 1e-12)"


# Each criterion once: its number, its name, its check and its time bound in seconds.
CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]], float], ...] = (
    (1, "lambda-opt reproduction", criterion_1_lambda_opt, 60.0),
    (2, "Tsirelson bound", criterion_2_tsirelson, 120.0),
    (3, "smeared-CHSH saturation", criterion_3_saturation_at_lambda_opt, math.inf),
    (4, "joint-POVM validity", criterion_4_witness_validity, math.inf),
    (5, "oracle agreement", criterion_5_oracle_agreement, math.inf),
    (6, "two-projector block round-trip", criterion_6_block_roundtrip, math.inf),
    (7, "dilation pipeline", criterion_7_dilation_pipeline, math.inf),
    (8, "box layer", criterion_8_box_layer, math.inf),
    (9, "smeared-mean scaling", criterion_9_mean_scaling, math.inf),
)


def run(
    number: int, name: str, check: Callable[[], tuple[bool, str]], time_bound: float
) -> AcceptanceResult:
    """Run one criterion of CRITERIA, timed; it fails if it takes time_bound or longer."""
    t0 = time.perf_counter()
    passed, detail = check()
    runtime = time.perf_counter() - t0
    return AcceptanceResult(number, name, passed and runtime < time_bound, detail, runtime)


def run_all() -> list[AcceptanceResult]:
    """Run every criterion in order, printing one line per result."""
    results = []
    for criterion in CRITERIA:
        result = run(*criterion)
        results.append(result)
        print(result.line)
    return results
