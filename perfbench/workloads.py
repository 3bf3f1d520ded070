"""The four benchmark workloads: input generation, the op, the independent check.

Every workload draws the inputs of op ``i`` from ``(seed, i)`` alone, so a
run can be repeated op for op and the traced pass replays exactly the ops
of the untraced pass.  ``run`` is the timed part: it calls the public
``unsharpjoint`` API (or ``cli.main``) and returns what the library
returned.  ``check`` is not timed; it recomputes the expected result with
plain numpy and raises ``WrongOutput`` when the library's output disagrees.

Inputs are drawn so that the share of each op kind is fixed per run:
op kinds and dimensions cycle with the op index, and the two continuous
parameters that decide a qubit verdict (lambda and the angle between the
Bloch vectors) come from a randomly shifted two-dimensional low-discrepancy
sequence.  The marginal distributions are exactly the ones stated in the
README; only the run-to-run variation of the mix is removed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import unsharpjoint as uj
from unsharpjoint import cli

# Independent reference operators; deliberately not imported from the
# library under test.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

LAMBDA_STAR = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)

# Tolerances of the checks: the library's own pinned tolerances.
RESIDUAL_TOL = 1e-9
PSD_TOL = 1e-9
CHSH_TOL = 1e-12

# Oracle verdicts within this distance of the closed-form boundary are
# counted as "in band" and not judged.
ORACLE_BAND = 0.02

# R2 sequence (Roberts 2018): additive recurrence with the plastic number.
_PLASTIC = 1.32471795724474602596
R2_ALPHA = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])

WARMUP_SEED = 0


class WrongOutput(Exception):
    """The library returned a result that the independent check rejects."""


class CommandFailed(Exception):
    """A ``uj`` command exited non-zero: an error, not an output."""


@dataclass
class Op:
    index: int
    kind: str
    data: dict = field(default_factory=dict)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _bloch_matrix(v) -> np.ndarray:
    return v[0] * SX + v[1] * SY + v[2] * SZ


def _criterion(m, n, lam) -> float:
    return lam * (float(np.linalg.norm(m + n)) + float(np.linalg.norm(m - n)))


def _pair_at(rng, cos_t: float) -> tuple[np.ndarray, np.ndarray]:
    """m uniform on the sphere, n at angle arccos(cos_t) from m, uniform azimuth.

    With cos_t uniform on [-1, 1] this is the law of two independent
    uniform unit vectors.
    """
    m = _unit(rng)
    w = rng.normal(size=3)
    w -= w.dot(m) * m
    w /= np.linalg.norm(w)
    n = cos_t * m + math.sqrt(max(0.0, 1.0 - cos_t * cos_t)) * w
    return m, n / np.linalg.norm(n)


def _r2(seed: int, index: int) -> np.ndarray:
    """Point ``index`` of the R2 sequence on [0, 1)^2, shifted at random by the seed."""
    shift = np.random.default_rng([seed, 2**31]).random(2)
    return (shift + (index + 1) * R2_ALPHA) % 1.0


def _qubit_draw(seed: int, index: int) -> tuple[np.random.Generator, np.ndarray, np.ndarray, float]:
    """Bloch pair and lambda ~ U[0.3, 0.95] for op ``index``."""
    u = _r2(seed, index)
    rng = _op_rng(seed, index)
    m, n = _pair_at(rng, 2.0 * float(u[1]) - 1.0)
    lam = 0.3 + 0.65 * float(u[0])
    return rng, m, n, lam


def _check_witness(effects, y1, y2) -> None:
    """Normalization, both marginals and positivity of four joint effects.

    y1, y2 are the smeared yes-effects the marginals must reproduce.
    """
    g = [np.asarray(e.matrix) for e in effects]
    d = g[0].shape[0]
    eye = np.eye(d)
    _require(np.max(np.abs(g[0] + g[1] + g[2] + g[3] - eye)) <= RESIDUAL_TOL, "witness normalization")
    _require(np.max(np.abs(g[0] + g[1] - y1)) <= RESIDUAL_TOL, "witness first marginal")
    _require(np.max(np.abs(g[0] + g[2] - y2)) <= RESIDUAL_TOL, "witness second marginal")
    for gi in g:
        _require(np.max(np.abs(gi - gi.conj().T)) <= RESIDUAL_TOL, "witness hermiticity")
        _require(np.linalg.eigvalsh((gi + gi.conj().T) / 2)[0] >= -PSD_TOL, "witness positivity")


def _check_residuals(res) -> None:
    _require(res.marginal_max <= RESIDUAL_TOL, f"check_joint residual {res.marginal_max:.3e}")
    _require(res.min_eigenvalue >= -PSD_TOL, f"check_joint min eigenvalue {res.min_eigenvalue:.3e}")


def _smeared_yes(yes: np.ndarray, lam: float) -> np.ndarray:
    return lam * yes + (1.0 - lam) / 2.0 * np.eye(yes.shape[0])


class Workload:
    name = ""
    # Ops per full cycle of the op mix (kinds, dimensions, argv variants).
    cycle = 1
    # Ops a run makes per --seconds, fixed so that a seed always gives the
    # same ops and so the same failures.  About the loop's rate on the
    # reference 2-vCPU VM at the seed commit, checks and input draws included.
    ops_per_second = 1
    # The op that set-up probes run.
    warmup_index = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write whatever the ops read from disk; untimed."""

    def warmup_op(self) -> Op:
        """The op a fresh interpreter runs to measure set-up: fixed, whatever the seed."""
        return type(self)(WARMUP_SEED, self.workdir).make(self.warmup_index)

    def make(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str:
        """Raise WrongOutput on a bad output; return a short outcome label."""
        raise NotImplementedError

    def bytes_out(self, op: Op) -> int:
        """Bytes of report the op wrote to disk."""
        return 0


class QubitWorkload(Workload):
    """Closed-form qubit decision, its witness check, and CHSH on a pure state."""

    name = "qubit"
    ops_per_second = 230

    def make(self, index):
        rng, m, n, lam = _qubit_draw(self.seed, index)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        settings = [_unit(rng) for _ in range(4)]
        return Op(index, "qubit", dict(m=m, n=n, lam=lam, psi=psi, settings=settings))

    def run(self, op):
        d = op.data
        lam = d["lam"]
        mb, nb = uj.BlochVector(d["m"]), uj.BlochVector(d["n"])
        rep = uj.qubit_joint_observable(mb, nb, lam)
        residuals = None
        if rep:
            residuals = uj.check_joint(
                rep.witness, uj.smear(mb.observable(), lam), uj.smear(nb.observable(), lam)
            )
        crit = uj.criterion_value(mb, nb, lam)
        state = uj.DensityMatrix.pure(d["psi"])
        obs = [uj.BlochVector(v).observable() for v in d["settings"]]
        sharp = uj.chsh(state, *obs)
        smeared = uj.smeared_chsh(state, *obs, lam)
        return rep, residuals, crit, sharp, smeared

    def check(self, op, out):
        rep, residuals, crit, sharp, smeared = out
        d = op.data
        m, n, lam = d["m"], d["n"], d["lam"]
        ref = _criterion(m, n, lam)
        _require(abs(crit - ref) <= 1e-12, f"criterion_value {crit!r} vs {ref!r}")
        if abs(ref - 2.0) > 1e-9:
            _require(rep.feasible == ("yes" if ref <= 2.0 else "no"), f"verdict {rep.feasible} at criterion {ref!r}")
        if rep.feasible == "yes":
            _check_residuals(residuals)
            _check_witness(
                rep.witness.effects,
                _smeared_yes((I2 + _bloch_matrix(m)) / 2, lam),
                _smeared_yes((I2 + _bloch_matrix(n)) / 2, lam),
            )
        psi = d["psi"] / np.linalg.norm(d["psi"])
        a1, a2, b1, b2 = (_bloch_matrix(v) for v in d["settings"])

        def corr(a, b):
            return float(np.real(psi.conj() @ np.kron(a, b) @ psi))

        terms = (corr(a1, b1), corr(a1, b2), corr(a2, b1), corr(a2, b2))
        for got, want in zip(sharp.terms, terms):
            _require(abs(got - want) <= CHSH_TOL, f"chsh term {got!r} vs {want!r}")
        value = abs(terms[0] + terms[1] + terms[2] - terms[3])
        _require(abs(sharp.value - value) <= CHSH_TOL, "chsh value")
        _require(sharp.value <= TSIRELSON + 1e-9, f"chsh {sharp.value!r} above 2*sqrt(2)")
        _require(abs(smeared.value - lam * sharp.value) <= CHSH_TOL, "smeared chsh is not lambda * chsh")
        return rep.feasible


class OracleWorkload(Workload):
    """The alternating-projection oracle on smeared qubit pairs."""

    name = "oracle"
    ops_per_second = 62

    def make(self, index):
        _, m, n, lam = _qubit_draw(self.seed, index)
        return Op(index, "oracle", dict(m=m, n=n, lam=lam))

    def run(self, op):
        d = op.data
        lam = d["lam"]
        o1 = uj.smear(uj.BlochVector(d["m"]).observable(), lam)
        o2 = uj.smear(uj.BlochVector(d["n"]).observable(), lam)
        return uj.feasibility_oracle(o1, o2)

    def check(self, op, rep):
        d = op.data
        m, n, lam = d["m"], d["n"], d["lam"]
        ref = _criterion(m, n, lam)
        if rep.feasible == "yes":
            _check_witness(
                rep.witness.effects,
                _smeared_yes((I2 + _bloch_matrix(m)) / 2, lam),
                _smeared_yes((I2 + _bloch_matrix(n)) / 2, lam),
            )
        if abs(ref - 2.0) < ORACLE_BAND:
            return "in-band"
        want = "yes" if ref <= 2.0 else "no"
        _require(rep.feasible == want, f"oracle {rep.feasible} at criterion {ref!r}")
        return want


BLOCK_PVM_DIMS = (4, 8, 16, 32, 64)
BLOCK_POVM_DIMS = (2, 3, 4, 8, 16)
# Positions, within each run of 50 projective ops, of the near-aligned pairs:
# one per dimension, so 10% of projective ops (5% of all ops) are near-aligned.
NEAR_ALIGNED_SLOTS = (0, 11, 22, 33, 44)
NEAR_ANGLE_RANGE = (1e-8, 1e-1)


def _random_basis(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _projector_pair(rng, d: int, rp: int, rq: int, near: bool):
    """Two projectors on C^d of ranks rp, rq in [1, d-1], Haar-random ranges.

    A near-aligned pair has one principal angle drawn log-uniformly from
    NEAR_ANGLE_RANGE: its first range vector is tilted by that angle from
    a range vector of the first projector towards its kernel.
    """
    u = _random_basis(rng, d)
    p = u[:, :rp] @ u[:, :rp].conj().T
    if not near:
        w = _random_basis(rng, d)[:, :rq]
        return p, rp, w @ w.conj().T, rq, None
    eps = float(np.exp(rng.uniform(*np.log(NEAR_ANGLE_RANGE))))
    first = math.cos(eps) * u[:, 0] + math.sin(eps) * u[:, rp]
    rest = rng.normal(size=(d, rq - 1)) + 1j * rng.normal(size=(d, rq - 1))
    w, _ = np.linalg.qr(np.column_stack([first, rest]))
    w[:, 0] = first  # keep the exact tilt (QR may flip its phase)
    return p, rp, w @ w.conj().T, rq, eps


def _random_effect(rng, d: int) -> np.ndarray:
    q = _random_basis(rng, d)
    return (q * rng.uniform(0.0, 1.0, size=d)) @ q.conj().T


class BlocksWorkload(Workload):
    """Two-projector decomposition + projective witness; POVM pairs by dilation."""

    name = "blocks"
    cycle = 100
    ops_per_second = 75
    warmup_index = 2  # a projective pair, d = 8, not near-aligned

    def make(self, index):
        rng = _op_rng(self.seed, index)
        j = index // 2
        if index % 2 == 0:
            d = BLOCK_PVM_DIMS[j % len(BLOCK_PVM_DIMS)]
            near = j % 50 in NEAR_ALIGNED_SLOTS
            # Ranks uniform on [1, d-1]^2, spread evenly per dimension: the
            # number of 2-dim blocks, which sets the cost, is then nearly
            # the same in every run.
            u = _r2(self.seed, j // len(BLOCK_PVM_DIMS))
            rp, rq = (1 + int(x * (d - 1)) for x in u)
            p, rp, q, rq, eps = _projector_pair(rng, d, rp, rq, near)
            kind = "pvm-near" if near else "pvm"
            return Op(index, kind, dict(d=d, p=p, rp=rp, q=q, rq=rq, eps=eps))
        d = BLOCK_POVM_DIMS[j % len(BLOCK_POVM_DIMS)]
        return Op(index, "povm", dict(d=d, a=_random_effect(rng, d), b=_random_effect(rng, d)))

    def run(self, op):
        d = op.data
        lam = uj.LAMBDA_OPT
        if op.kind == "povm":
            o1 = uj.DichotomicObservable.from_yes_effect(d["a"])
            o2 = uj.DichotomicObservable.from_yes_effect(d["b"])
            rep = uj.povm_joint_observable(o1, o2, lam)
            return None, rep, uj.check_joint(rep.witness, uj.smear(o1, lam), uj.smear(o2, lam))
        p = uj.Projector(d["p"], rank=d["rp"])
        q = uj.Projector(d["q"], rank=d["rq"])
        dec = uj.two_projector_blocks(p, q)
        rep = uj.pvm_joint_observable(p, q, lam)
        return dec, rep, uj.check_joint(rep.witness, uj.smear(p.observable(), lam), uj.smear(q.observable(), lam))

    def check(self, op, out):
        dec, rep, residuals = out
        d = op.data
        lam = uj.LAMBDA_OPT
        # Every dichotomic pair is jointly measurable at lambda = 1/sqrt(2).
        _require(rep.feasible == "yes", f"verdict {rep.feasible} at lambda_opt")
        _check_residuals(residuals)
        if op.kind == "povm":
            _check_witness(rep.witness.effects, _smeared_yes(d["a"], lam), _smeared_yes(d["b"], lam))
            return op.kind
        _check_witness(rep.witness.effects, _smeared_yes(d["p"], lam), _smeared_yes(d["q"], lam))
        u = np.asarray(dec.unitary)
        dim = d["d"]
        _require(np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= RESIDUAL_TOL, "block basis unitarity")
        _require(sum(b.dim for b in dec.blocks) == dim, "block dims sum to d")
        _require(sum(b.rank_p for b in dec.blocks) == d["rp"], "block ranks of p")
        _require(sum(b.rank_q for b in dec.blocks) == d["rq"], "block ranks of q")
        mask = np.ones((dim, dim), dtype=bool)
        offset = 0
        for b in dec.blocks:
            mask[offset : offset + b.dim, offset : offset + b.dim] = False
            offset += b.dim
        for proj in (d["p"], d["q"]):
            conj = u.conj().T @ proj @ u
            _require(np.max(np.abs(np.where(mask, conj, 0.0))) <= RESIDUAL_TOL, "off-block residual")
            rebuilt = u @ np.where(mask, 0.0, conj) @ u.conj().T
            _require(np.max(np.abs(rebuilt - proj)) <= RESIDUAL_TOL, "block round-trip")
        return op.kind


# The cli mix: 12 command forms with 3 argv variants each, plus a fourth
# box-chsh variant, cycled by op index.  The argvs are built once per run
# from its fixtures, so every argv repeats many times per run and its
# output bytes can be compared.  The median op of the mix is a `blocks`
# on d = 16; six extra repeats of that argv put the 50th percentile inside
# its own times, not in a gap between two argvs of different cost whose
# order can swap from run to run.  That keeps op_p50_ms steady.
CLI_FORMS = (
    "smear",
    "blocks",
    "dilate",
    "jm-projective",
    "jm-povm",
    "jm-oracle",
    "lambda-opt-bloch",
    "lambda-opt-files",
    "lambda-opt-worst-case",
    "chsh",
    "box-chsh",
    "sweep",
)
CLI_VARIANTS = 3
CLI_MEDIAN_ARGV = ("blocks", 2)
CLI_ARGVS = (
    tuple((form, v) for v in range(CLI_VARIANTS) for form in CLI_FORMS)
    + (("box-chsh", 3),)
    + (CLI_MEDIAN_ARGV,) * 6
)
CLI_BLOCK_DIMS = (4, 8, 16)
CLI_POVM_DIMS = (2, 3, 4)
# Per-variant values of the inputs that set an argv's cost, so that every
# run has the same costs; only orientations and matrix entries are random.
# Oracle variants sit at fixed criterion values, two feasible and one not,
# with orthogonal Bloch vectors.
CLI_ORACLE_CRITERIA = (1.6, 1.9, 2.3)
# jointly-measurable on projectors of rank d/2: two feasible, one not.
CLI_PVM_LAMBDAS = (0.6, 0.65, 0.95)
# Angles between the Bloch vectors of lambda-opt --mode pair.
CLI_LAMBDA_OPT_ANGLES = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
CLI_WORST_CASE_SEEDS = (2026, 7, 11)
# Sweeps of orthogonal Bloch vectors from lambda = 0.5: the 120-row grid
# crosses the boundary 1/sqrt(2) at row 104.
CLI_SWEEP_START = 0.5
CLI_SWEEP_ROWS = (25, 60, 120)
CLI_SWEEP_STEP = 0.002


def _op_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _fmt_vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


class CliWorkload(Workload):
    """In-process ``uj`` commands on fixture files, reports written with --out."""

    name = "cli"
    cycle = len(CLI_ARGVS)
    ops_per_second = 50

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fixtures = workdir / "fixtures"
        self.outdir = workdir / "out"
        self.pending: dict[Path, object] = {}
        self.digests: dict[tuple, str] = {}
        self.argvs = {(f, v): self._build(f, v, np.random.default_rng([seed, 2**32, CLI_FORMS.index(f), v]))
                      for f, v in set(CLI_ARGVS)}

    def prepare(self):
        self.fixtures.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        for path, obj in self.pending.items():
            path.write_text(json.dumps(obj), encoding="utf-8")

    def warmup_op(self):
        # Same form and size for every seed; the parent has written the fixtures.
        return self.make(self.warmup_index)

    def _fixture(self, name: str, obj) -> str:
        path = self.fixtures / f"{name}.json"
        self.pending[path] = obj
        return str(path)

    def _build(self, form: str, v: int, rng) -> tuple[list[str], dict]:
        """argv for one (form, variant) plus what the check needs to know."""
        tag = f"{form}-{v}"
        out = str(self.outdir / f"{tag}.txt")
        if form in ("smear", "dilate"):
            d = CLI_POVM_DIMS[v]
            a = _random_effect(rng, d)
            path = self._fixture(tag, _op_json(a))
            if form == "dilate":
                return ["dilate", "--obs", path, "--out", out], {}
            lam = float(rng.uniform(0.3, 1.0))
            return ["smear", "--obs", path, "--lambda", repr(lam), "--out", out], dict(a=a, lam=lam)
        if form in ("blocks", "jm-projective"):
            d = CLI_BLOCK_DIMS[v]
            p, _, q, _, _ = _projector_pair(rng, d, d // 2, d // 2, near=False)
            pp, qp = self._fixture(tag + "-p", _op_json(p)), self._fixture(tag + "-q", _op_json(q))
            if form == "blocks":
                return ["blocks", "--p", pp, "--q", qp, "--out", out], {}
            lam = CLI_PVM_LAMBDAS[v]
            return ["jointly-measurable", "--o1", pp, "--o2", qp, "--lambda", repr(lam), "--out", out], {}
        if form == "jm-povm":
            d = CLI_POVM_DIMS[v]
            a, b = _random_effect(rng, d), _random_effect(rng, d)
            lam = float(rng.uniform(0.3, LAMBDA_STAR))
            return ["jointly-measurable", "--o1", self._fixture(tag + "-a", _op_json(a)),
                    "--o2", self._fixture(tag + "-b", _op_json(b)), "--lambda", repr(lam),
                    "--out", out], dict(feasible="yes")
        if form == "jm-oracle":
            m, n = _pair_at(rng, 0.0)
            target = CLI_ORACLE_CRITERIA[v]
            lam = target / _criterion(m, n, 1.0)
            files = [self._fixture(f"{tag}-{k}", _op_json((I2 + _bloch_matrix(x)) / 2))
                     for k, x in (("m", m), ("n", n))]
            return ["jointly-measurable", "--oracle", "--o1", files[0], "--o2", files[1],
                    "--lambda", repr(lam), "--out", out], dict(feasible="yes" if target <= 2 else "no")
        if form == "lambda-opt-bloch":
            m, n = _pair_at(rng, math.cos(CLI_LAMBDA_OPT_ANGLES[v]))
            return ["lambda-opt", "--mode", "pair", f"--m={_fmt_vec(m)}", f"--n={_fmt_vec(n)}",
                    "--out", out], dict(threshold=2.0 / _criterion(m, n, 1.0), tol=1e-4)
        if form == "lambda-opt-files":
            d = CLI_POVM_DIMS[v]
            a, b = _random_effect(rng, d), _random_effect(rng, d)
            return ["lambda-opt", "--mode", "pair", "--o1", self._fixture(tag + "-a", _op_json(a)),
                    "--o2", self._fixture(tag + "-b", _op_json(b)), "--out", out], dict(at_most=LAMBDA_STAR)
        if form == "lambda-opt-worst-case":
            return ["lambda-opt", "--mode", "worst-case", "--seed", str(CLI_WORST_CASE_SEEDS[v]), "--out", out], \
                dict(threshold=LAMBDA_STAR, tol=1e-4)
        if form == "chsh":
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            settings = [_unit(rng) for _ in range(4)]
            state = self._fixture(tag + "-state", _op_json(np.outer(psi, psi.conj())))
            sfile = self._fixture(tag + "-settings", {
                k: _op_json((I2 + _bloch_matrix(s)) / 2) for k, s in zip(("a1", "a2", "b1", "b2"), settings)
            })
            a1, a2, b1, b2 = (_bloch_matrix(s) for s in settings)

            def corr(a, b):
                return float(np.real(psi.conj() @ np.kron(a, b) @ psi))

            value = abs(corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2))
            argv = ["chsh", "--state", state, "--settings", sfile, "--out", out]
            if v > 0:
                lam = float(rng.uniform(0.3, 1.0))
                argv[-2:-2] = ["--lambda", repr(lam)]
                value *= lam
            return argv, dict(value=value)
        if form == "box-chsh":
            if v == 0:
                table = {k: [[0.5, 0.0], [0.0, 0.5]] if k != "22" else [[0.0, 0.5], [0.5, 0.0]]
                         for k in ("11", "12", "21", "22")}
                value = 4.0
            elif v == 1:
                a, b = rng.choice([0, 1], size=2), rng.choice([0, 1], size=2)
                table = {}
                for x in (1, 2):
                    for y in (1, 2):
                        cell = [[0.0, 0.0], [0.0, 0.0]]
                        cell[a[x - 1]][b[y - 1]] = 1.0
                        table[f"{x}{y}"] = cell
                value = 2.0
            else:
                w = float(rng.uniform(0.0, 1.0))
                table = {k: [[w / 2 + (1 - w) / 4, (1 - w) / 4], [(1 - w) / 4, w / 2 + (1 - w) / 4]]
                         if k != "22" else
                         [[(1 - w) / 4, w / 2 + (1 - w) / 4], [w / 2 + (1 - w) / 4, (1 - w) / 4]]
                         for k in ("11", "12", "21", "22")}
                value = 4.0 * w
            return ["box-chsh", "--box", self._fixture(tag, {"p": table}), "--out", out], dict(value=value)
        if form == "sweep":
            m, n = _pair_at(rng, 0.0)
            rows = CLI_SWEEP_ROWS[v]
            start = CLI_SWEEP_START
            stop = start + (rows - 1) * CLI_SWEEP_STEP
            return ["sweep", f"--m={_fmt_vec(m)}", f"--n={_fmt_vec(n)}", "--start", repr(start),
                    "--stop", repr(stop), "--step", repr(CLI_SWEEP_STEP), "--out", out], \
                dict(m=m, n=n, rows=rows, start=start)
        raise ValueError(form)

    def make(self, index):
        form, variant = CLI_ARGVS[index % len(CLI_ARGVS)]
        argv, expect = self.argvs[(form, variant)]
        return Op(index, form, dict(key=(form, variant), argv=argv, expect=expect))

    def run(self, op):
        code = cli.main(op.data["argv"])
        if code != 0:
            raise CommandFailed(f"exit code {code}")
        return code

    def bytes_out(self, op):
        out = Path(op.data["argv"][op.data["argv"].index("--out") + 1])
        return out.stat().st_size if out.exists() else 0

    def check(self, op, code):
        raw = Path(op.data["argv"][op.data["argv"].index("--out") + 1]).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault(op.data["key"], digest)
        _require(digest == first, "report bytes differ from an earlier run of the same argv")
        expect = op.data["expect"]
        if op.kind == "sweep":
            return self._check_sweep(raw.decode("utf-8"), expect)
        report = json.loads(raw)
        _require(report.get("schema") == "uj/1", "schema tag")
        if op.kind == "smear":
            a, lam = expect["a"], expect["lam"]
            yes = np.array(report["yes"]["re"]) + 1j * np.array(report["yes"]["im"])
            _require(np.max(np.abs(yes - _smeared_yes(a, lam))) <= RESIDUAL_TOL, "smeared yes-effect")
        elif "feasible" in expect:
            _require(report["feasible"] == expect["feasible"], f"verdict {report['feasible']}")
        elif "threshold" in expect:
            got = report["lambda_opt"]
            _require(expect["threshold"] - expect["tol"] - 1e-12 <= got <= expect["threshold"] + 1e-12,
                     f"lambda_opt {got!r} vs closed form {expect['threshold']!r}")
        elif "at_most" in expect:
            _require(0.5 <= report["lambda_opt"] <= expect["at_most"] + 1e-12, "lambda_opt above 1/sqrt(2)")
        elif "value" in expect:
            _require(abs(report["value"] - expect["value"]) <= CHSH_TOL, f"chsh value {report['value']!r}")
        return op.kind

    @staticmethod
    def _check_sweep(text: str, expect: dict) -> str:
        lines = text.split("\n")
        _require(lines[0] == "lambda,feasible,smeared_chsh,bound" and lines[-1] == "", "sweep csv layout")
        rows = lines[1:-1]
        _require(abs(len(rows) - expect["rows"]) <= 1, f"sweep has {len(rows)} rows")
        s = float(np.linalg.norm(expect["m"] + expect["n"]) + np.linalg.norm(expect["m"] - expect["n"]))
        for i, row in enumerate(rows):
            lam_s, verdict, value_s, bound_s = row.split(",")
            lam = float(lam_s)
            _require(abs(lam - (expect["start"] + i * CLI_SWEEP_STEP)) <= 1e-9, "sweep grid")
            if abs(lam * s - 2.0) > 1e-9:
                _require(verdict == ("yes" if lam * s <= 2.0 else "no"), f"sweep verdict at {lam_s}")
            _require(abs(float(value_s) - lam * s) <= 1e-9, f"sweep smeared chsh at {lam_s}")
            _require(abs(float(bound_s) - 2.0 / lam) <= 1e-9, f"sweep bound at {lam_s}")
        return "sweep"


WORKLOADS = {w.name: w for w in (QubitWorkload, OracleWorkload, BlocksWorkload, CliWorkload)}
