"""Command-line front end: file I/O, experiment orchestration, reports.

Every command reads operators in the row-major JSON format
{"dim": d, "re": [[...]], "im": [[...]]} and emits reports tagged with
"schema": "uj/1".  Reports are deterministic for fixed inputs and seed:
JSON is written with sorted keys, CSV with '.' decimals, ',' separators,
LF line endings and 15 significant digits.

Exit status: 0 on success, 2 when an infeasible verdict meets
--expect-feasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acceptance as acceptance_mod
from .bell import ChshReport, NoSignalingBox, box_chsh, chsh, singlet, smeared_chsh
from .decompose import neumark_dilate, two_projector_blocks
from .errors import (
    LambdaTooLarge,
    NotProjector,
    ParseError,
    UnsharpJointError,
    ValidationError,
)
from .joint import (
    BlochVector,
    FeasibilityReport,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    pvm_joint_observable,
    qubit_joint_observable,
)
from .operators import (
    DensityMatrix,
    DichotomicObservable,
    Effect,
    Projector,
    matrix_from_json,
    matrix_to_json,
)
from .unsharp import smear

SCHEMA = "uj/1"


@dataclass
class RunConfig:
    """One CLI invocation: command, inputs, numeric knobs, output target."""

    command: str
    inputs: dict = field(default_factory=dict)
    lam: float | None = None
    tol: float = 1e-9
    seed: int = 2026
    mesh: int = 1000
    max_iter: int = 20000
    start: float | None = None
    stop: float | None = None
    step: float | None = None
    mode: str = "pair"
    m: str | None = None
    n: str | None = None
    out: str | None = None
    oracle: bool = False
    expect_feasible: bool = False

    def __post_init__(self):
        if not (1e-12 <= self.tol <= 1e-2):
            raise ValidationError("tol-in-[1e-12,1e-2]", detail=f"got {self.tol!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed-uint64", detail=f"got {self.seed!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        return matrix_from_json(obj)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from exc


def _load_observable(path: str) -> DichotomicObservable:
    """Observable file: {"yes": op, "no": op} or a bare yes-effect operator."""
    obj = _load_json(path)
    try:
        if "yes" in obj:
            yes = matrix_from_json(obj["yes"])
            if "no" in obj:
                return DichotomicObservable(Effect(yes), Effect(matrix_from_json(obj["no"])))
            return DichotomicObservable.from_yes_effect(yes)
        return DichotomicObservable.from_yes_effect(matrix_from_json(obj))
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_bloch(text: str) -> BlochVector:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParseError("<bloch>", f"expected 'x,y,z', got {text!r}") from exc
    return BlochVector.normalized(np.array(parts))


def observable_to_json(obs: DichotomicObservable) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "observable",
        "yes": matrix_to_json(obs.yes_effect.matrix),
        "no": matrix_to_json(obs.no_effect.matrix),
    }


def feasibility_to_json(rep: FeasibilityReport) -> dict:
    witness = None
    if rep.witness is not None:
        witness = {
            key: matrix_to_json(e.matrix)
            for key, e in zip(("g_pp", "g_pm", "g_mp", "g_mm"), rep.witness.effects)
        }
    return {
        "schema": SCHEMA,
        "kind": "feasibility",
        "feasible": rep.feasible,
        "marginal_residual": rep.marginal_residual,
        "min_eigenvalue": rep.min_eigenvalue,
        "iterations": rep.iterations,
        "witness": witness,
    }


def chsh_to_json(rep: ChshReport) -> dict:
    t11, t12, t21, t22 = rep.terms
    return {
        "schema": SCHEMA,
        "kind": "chsh",
        "value": rep.value,
        "terms": {"t11": t11, "t12": t12, "t21": t21, "t22": t22},
        "bound_lambda": rep.bound_lambda,
        "within_bound": rep.within_bound,
    }


def _emit(config: RunConfig, payload, text: str | None = None) -> None:
    """Write the report to --out (or stdout); JSON unless text is given."""
    if text is None:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _fifteen(x: float) -> str:
    return f"{float(x):.15g}"


def _cmd_smear(config: RunConfig) -> int:
    obs = _load_observable(config.inputs["obs"])
    _emit(config, observable_to_json(smear(obs, config.lam)))
    return 0


def _cmd_blocks(config: RunConfig) -> int:
    p = Projector.from_matrix(_load_matrix(config.inputs["p"]))
    q = Projector.from_matrix(_load_matrix(config.inputs["q"]))
    dec = two_projector_blocks(p, q)
    payload = {
        "schema": SCHEMA,
        "kind": "block-decomposition",
        "unitary": matrix_to_json(dec.unitary),
        "blocks": [
            {
                "dim": b.dim,
                "basis_columns": list(b.basis_columns),
                "rank_p": b.rank_p,
                "rank_q": b.rank_q,
                "overlap": b.overlap,
            }
            for b in dec.blocks
        ],
    }
    _emit(config, payload)
    return 0


def _cmd_dilate(config: RunConfig) -> int:
    obs = _load_observable(config.inputs["obs"])
    dil = neumark_dilate(obs)
    payload = {
        "schema": SCHEMA,
        "kind": "dilation",
        "projector": matrix_to_json(dil.projector.matrix),
        "rank": dil.projector.rank,
        "convention": dil.convention,
    }
    _emit(config, payload)
    return 0


def _decide(o1: DichotomicObservable, o2: DichotomicObservable, config: RunConfig) -> FeasibilityReport:
    if config.oracle:
        return feasibility_oracle(
            smear(o1, config.lam), smear(o2, config.lam),
            max_iter=config.max_iter, tol=config.tol,
        )

    def as_projector(obs):
        try:
            return Projector.from_matrix(obs.yes_effect.matrix)
        except NotProjector:
            return None

    p1, p2 = as_projector(o1), as_projector(o2)
    if p1 is not None and p2 is not None:
        return pvm_joint_observable(p1, p2, config.lam)
    return povm_joint_observable(o1, o2, config.lam)


def _cmd_jointly_measurable(config: RunConfig) -> int:
    o1 = _load_observable(config.inputs["o1"])
    o2 = _load_observable(config.inputs["o2"])
    try:
        rep = _decide(o1, o2, config)
    except LambdaTooLarge as exc:
        raise UnsharpJointError(f"{exc}; rerun with --oracle") from exc
    _emit(config, feasibility_to_json(rep))
    if config.expect_feasible and rep.feasible != "yes":
        return 2
    return 0


def _cmd_lambda_opt(config: RunConfig) -> int:
    if config.mode == "worst-case":
        result = lambda_opt_search("worst-case", seed=config.seed, mesh=config.mesh)
        m, n = result.pair
        pair_json = {"m": list(m.v), "n": list(n.v)}
    else:
        if config.m is not None and config.n is not None:
            pair = (_parse_bloch(config.m), _parse_bloch(config.n))
            result = lambda_opt_search(pair)
            pair_json = {"m": list(pair[0].v), "n": list(pair[1].v)}
        elif "o1" in config.inputs and "o2" in config.inputs:
            o1 = _load_observable(config.inputs["o1"])
            o2 = _load_observable(config.inputs["o2"])
            result = lambda_opt_search((o1, o2))
            pair_json = {
                "o1": observable_to_json(o1),
                "o2": observable_to_json(o2),
            }
        else:
            raise ValidationError(
                "lambda-opt-pair-inputs", detail="need --m/--n or --o1/--o2"
            )
    payload = {
        "schema": SCHEMA,
        "kind": "lambda-opt",
        "lambda_opt": result.value,
        "oracle_verdict": result.oracle_verdict,
        "pair": pair_json,
    }
    _emit(config, payload)
    return 0


def _cmd_chsh(config: RunConfig) -> int:
    state = DensityMatrix(_load_matrix(config.inputs["state"]))
    settings = _load_json(config.inputs["settings"])
    obs = {}
    for key in ("a1", "a2", "b1", "b2"):
        if key not in settings:
            raise ParseError(config.inputs["settings"], f"missing setting {key!r}")
        entry = settings[key]
        if "yes" in entry:
            yes = Effect(matrix_from_json(entry["yes"]))
            obs[key] = (
                DichotomicObservable(yes, Effect(matrix_from_json(entry["no"])))
                if "no" in entry
                else DichotomicObservable.from_yes_effect(yes)
            )
        else:
            obs[key] = DichotomicObservable.from_yes_effect(matrix_from_json(entry))
    if config.lam is None:
        rep = chsh(state, obs["a1"], obs["a2"], obs["b1"], obs["b2"])
    else:
        rep = smeared_chsh(state, obs["a1"], obs["a2"], obs["b1"], obs["b2"], config.lam)
    _emit(config, chsh_to_json(rep))
    return 0


def _cmd_box_chsh(config: RunConfig) -> int:
    obj = _load_json(config.inputs["box"])
    if "p" not in obj:
        raise ParseError(config.inputs["box"], "missing field 'p'")
    box = NoSignalingBox(obj["p"])
    _emit(config, chsh_to_json(box_chsh(box)))
    return 0


def _sweep_row(m: BlochVector, n: BlochVector, lam: float):
    verdict = qubit_joint_observable(m, n, lam).feasible
    state = singlet()
    s = m.v + n.v
    d = m.v - n.v

    def unit_or_fallback(v):
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            # Degenerate pair (m = +/-n): any unit vector contributes 0.
            return np.array([0.0, 1.0, 0.0])
        return v / norm

    b1 = BlochVector.normalized(unit_or_fallback(s))
    b2 = BlochVector.normalized(unit_or_fallback(d))
    rep = smeared_chsh(
        state,
        m.observable(),
        n.observable(),
        b1.observable(),
        b2.observable(),
        lam,
    )
    return lam, verdict, rep.value, 2.0 / lam


def _cmd_sweep(config: RunConfig) -> int:
    m = _parse_bloch(config.m or "0,0,1")
    n = _parse_bloch(config.n or "1,0,0")
    if config.start is None or config.stop is None or config.step is None:
        raise ValidationError("sweep-grid", detail="--start/--stop/--step required")
    if not all(map(math.isfinite, (config.start, config.stop, config.step))):
        raise ValidationError("sweep-grid", detail="start, stop and step must be finite")
    if config.step <= 0 or config.stop < config.start:
        raise ValidationError("sweep-grid", detail="need step > 0 and stop >= start")
    if config.start <= 0:
        raise ValidationError("sweep-grid", detail="lambda grid must start above 0")
    stop = min(config.stop, 1.0)
    # A step under the float spacing at the loop's end could leave lam
    # unchanged by `lam += step`, and the loop would never end.
    if config.step < math.ulp(stop + 1e-12):
        raise ValidationError("sweep-grid", detail=f"step {config.step!r} cannot advance lambda")
    grid = []
    lam = config.start
    while lam <= stop + 1e-12:
        grid.append(min(lam, 1.0))
        lam += config.step

    lines = ["lambda,feasible,smeared_chsh,bound"]
    for lam, verdict, value, bound in (_sweep_row(m, n, L) for L in grid):
        lines.append(f"{_fifteen(lam)},{verdict},{_fifteen(value)},{_fifteen(bound)}")
    _emit(config, None, text="\n".join(lines) + "\n")
    return 0


def _cmd_acceptance(config: RunConfig) -> int:
    results = acceptance_mod.run_all(echo=print)
    payload = {
        "schema": SCHEMA,
        "kind": "acceptance",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "runtime_seconds": r.runtime,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    if config.out:
        _emit(config, payload)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "smear": _cmd_smear,
    "blocks": _cmd_blocks,
    "dilate": _cmd_dilate,
    "jointly-measurable": _cmd_jointly_measurable,
    "lambda-opt": _cmd_lambda_opt,
    "chsh": _cmd_chsh,
    "box-chsh": _cmd_box_chsh,
    "sweep": _cmd_sweep,
    "acceptance": _cmd_acceptance,
}


def run(config: RunConfig) -> int:
    """Execute one validated configuration; returns the exit status."""
    return _COMMANDS[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uj",
        description="Joint measurability of unsharp dichotomic observables "
        "and CHSH bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report to this path (default stdout)")

    p = sub.add_parser("smear", help="smear an observable by lambda")
    p.add_argument("--obs", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    add_common(p)

    p = sub.add_parser("blocks", help="two-projector block decomposition")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    add_common(p)

    p = sub.add_parser("dilate", help="projective dilation of a dichotomic POVM")
    p.add_argument("--obs", required=True)
    add_common(p)

    p = sub.add_parser("jointly-measurable", help="joint measurability of a pair")
    p.add_argument("--o1", required=True)
    p.add_argument("--o2", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--oracle", action="store_true", help="use the alternating-projection oracle")
    p.add_argument("--expect-feasible", action="store_true", help="exit 2 unless feasible")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=20000)
    add_common(p)

    p = sub.add_parser("lambda-opt", help="largest feasible unsharpness")
    p.add_argument("--mode", choices=("pair", "worst-case"), default="pair")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--mesh", type=int, default=1000)
    p.add_argument("--m", help="Bloch vector 'x,y,z' for the first observable")
    p.add_argument("--n", help="Bloch vector 'x,y,z' for the second observable")
    p.add_argument("--o1", help="observable file (alternative to --m)")
    p.add_argument("--o2", help="observable file (alternative to --n)")
    add_common(p)

    p = sub.add_parser("chsh", help="CHSH report for a state and settings")
    p.add_argument("--state", required=True)
    p.add_argument("--settings", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="smear Alice's settings by this unsharpness")
    add_common(p)

    p = sub.add_parser("box-chsh", help="CHSH of a no-signaling box table")
    p.add_argument("--box", required=True)
    add_common(p)

    p = sub.add_parser("sweep", help="lambda sweep: verdict, smeared CHSH, bound")
    p.add_argument("--m", default="0,0,1")
    p.add_argument("--n", default="1,0,0")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    add_common(p)

    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    inputs = {}
    for key in ("obs", "p", "q", "o1", "o2", "state", "settings", "box"):
        val = getattr(args, key, None)
        if val is not None:
            inputs[key] = val
    return RunConfig(
        command=args.command,
        inputs=inputs,
        lam=getattr(args, "lam", None),
        tol=getattr(args, "tol", 1e-9),
        seed=getattr(args, "seed", 2026),
        mesh=getattr(args, "mesh", 1000),
        max_iter=getattr(args, "max_iter", 20000),
        start=getattr(args, "start", None),
        stop=getattr(args, "stop", None),
        step=getattr(args, "step", None),
        mode=getattr(args, "mode", "pair"),
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        out=getattr(args, "out", None),
        oracle=getattr(args, "oracle", False),
        expect_feasible=getattr(args, "expect_feasible", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except UnsharpJointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
