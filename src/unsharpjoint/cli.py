"""Command-line front end: file I/O, experiment orchestration, reports.

Every command reads operators in the row-major JSON format
{"dim": d, "re": [[...]], "im": [[...]]} and emits reports tagged with
"schema": "uj/1".  Reports are deterministic for fixed inputs and seed:
JSON is written with sorted keys, CSV with '.' decimals, ',' separators,
LF line endings and 15 significant digits.

argparse hands its namespace straight to the command handlers; each handler
range-checks the flags it reads before it opens any file.

Exit status: 0 on success, 2 when an infeasible verdict meets
--expect-feasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance as acceptance_mod
from .bell import (
    ChshReport, NoSignalingBox, box_chsh, chsh, singlet, smeared_chsh, smeared_chsh_values
)
from .decompose import ANCILLA_CONVENTION, neumark_dilate, two_projector_blocks
from .errors import ParseError, UnsharpJointError, ValidationError
from .joint import (
    BlochVector,
    FeasibilityReport,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    qubit_verdicts,
    validate_max_iter,
    validate_seed,
)
from .operators import (
    BOB_DIRECTION_CUTOFF,
    SWEEP_END_SLACK,
    DensityMatrix,
    DichotomicObservable,
    Effect,
    Projector,
    matrix_from_json,
    matrix_to_json,
)
from .unsharp import smear

SCHEMA = "uj/1"
SWEEP_MAX_ROWS = 10**5  # a row costs about 2 KB and 14 us; a larger grid is refused unbuilt


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past int()'s digit limit
        raise ParseError(path, str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _load(path: str, build):
    """build(obj) for the JSON object in a file; a failed check names the file."""
    obj = _load_json(path)
    try:
        return build(obj)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from exc


def _observable(obj) -> DichotomicObservable:
    """Observable format: {"yes": op, "no": op}, {"yes": op} or a bare yes-effect operator."""
    if isinstance(obj, dict) and "yes" in obj:
        yes = Effect(matrix_from_json(obj["yes"]))
        if "no" in obj:
            return DichotomicObservable(yes, Effect(matrix_from_json(obj["no"])))
        return DichotomicObservable.from_yes_effect(yes)
    return DichotomicObservable.from_yes_effect(matrix_from_json(obj))


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
    payload = {
        "schema": SCHEMA,
        "kind": "feasibility",
        "feasible": rep.feasible,
        "marginal_residual": rep.marginal_residual,
        "min_eigenvalue": rep.min_eigenvalue,
        "iterations": rep.iterations,
        "witness": witness,
    }
    if rep.certificate is not None:
        payload["certificate"] = {
            key: matrix_to_json(h)
            for key, h in zip(("h_pp", "h_pm", "h_mp", "h_mm"), rep.certificate)
        }
    return payload


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


def _emit(out: str | None, payload, text: str | None = None) -> None:
    """Write the report to --out (or stdout); JSON unless text is given."""
    if text is None:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _fifteen(x: float) -> str:
    return f"{float(x):.15g}"


def _cmd_smear(args: argparse.Namespace) -> int:
    obs = _load(args.obs, _observable)
    _emit(args.out, observable_to_json(smear(obs, args.lam)))
    return 0


def _cmd_blocks(args: argparse.Namespace) -> int:
    p, q = (_load(f, lambda obj: Projector.from_matrix(matrix_from_json(obj))) for f in (args.p, args.q))
    dec = two_projector_blocks(p, q)
    # Each block's columns of the unitary follow those of the blocks before it.
    starts = itertools.accumulate((b.dim for b in dec.blocks), initial=0)
    payload = {
        "schema": SCHEMA,
        "kind": "block-decomposition",
        "unitary": matrix_to_json(dec.unitary),
        "blocks": [
            {
                "dim": b.dim,
                "basis_columns": list(range(start, start + b.dim)),
                "rank_p": b.rank_p,
                "rank_q": b.rank_q,
                "overlap": b.overlap,
            }
            for b, start in zip(dec.blocks, starts)
        ],
    }
    _emit(args.out, payload)
    return 0


def _cmd_dilate(args: argparse.Namespace) -> int:
    obs = _load(args.obs, _observable)
    proj = neumark_dilate(obs)
    payload = {
        "schema": SCHEMA,
        "kind": "dilation",
        "projector": matrix_to_json(proj.matrix),
        "rank": proj.rank,
        "convention": ANCILLA_CONVENTION,
    }
    _emit(args.out, payload)
    return 0


def _decide(
    o1: DichotomicObservable, o2: DichotomicObservable, args: argparse.Namespace
) -> FeasibilityReport:
    if args.oracle:
        return feasibility_oracle(smear(o1, args.lam), smear(o2, args.lam), max_iter=args.max_iter)
    return povm_joint_observable(o1, o2, args.lam)


def _cmd_jointly_measurable(args: argparse.Namespace) -> int:
    validate_max_iter(args.max_iter)
    o1 = _load(args.o1, _observable)
    o2 = _load(args.o2, _observable)
    rep = _decide(o1, o2, args)
    _emit(args.out, feasibility_to_json(rep))
    if args.expect_feasible and rep.feasible != "yes":
        return 2
    return 0


def _cmd_lambda_opt(args: argparse.Namespace) -> int:
    validate_seed(args.seed)
    given = {flag for flag in ("m", "n", "o1", "o2") if getattr(args, flag) is not None}
    if args.mode == "worst-case":
        if given:
            raise ValidationError(
                "lambda-opt-pair-inputs", detail="--mode worst-case takes no --m/--n/--o1/--o2"
            )
        source = "worst-case"
    elif given == {"m", "n"}:
        source = (_parse_bloch(args.m), _parse_bloch(args.n))
    elif given == {"o1", "o2"}:
        source = (_load(args.o1, _observable), _load(args.o2, _observable))
    else:
        raise ValidationError("lambda-opt-pair-inputs", detail="need --m/--n or --o1/--o2")
    result = lambda_opt_search(source, seed=args.seed)
    a, b = result.pair
    if isinstance(a, BlochVector):
        pair_json = {"m": list(a.v), "n": list(b.v)}
    else:
        pair_json = {"o1": observable_to_json(a), "o2": observable_to_json(b)}
    payload = {
        "schema": SCHEMA,
        "kind": "lambda-opt",
        "lambda_opt": result.value,
        "pair": pair_json,
    }
    _emit(args.out, payload)
    return 0


def _cmd_chsh(args: argparse.Namespace) -> int:
    state = _load(args.state, lambda obj: DensityMatrix(matrix_from_json(obj)))
    settings = _load_json(args.settings)
    obs = {}
    for key in ("a1", "a2", "b1", "b2"):
        if key not in settings:
            raise ParseError(args.settings, f"missing setting {key!r}")
        try:
            obs[key] = _observable(settings[key])
        except ValidationError as exc:
            raise ParseError(args.settings, str(exc)) from exc
    if args.lam is None:
        rep = chsh(state, obs["a1"], obs["a2"], obs["b1"], obs["b2"])
    else:
        rep = smeared_chsh(state, obs["a1"], obs["a2"], obs["b1"], obs["b2"], args.lam)
    _emit(args.out, chsh_to_json(rep))
    return 0


def _cmd_box_chsh(args: argparse.Namespace) -> int:
    obj = _load_json(args.box)
    if "p" not in obj:
        raise ParseError(args.box, "missing field 'p'")
    try:
        box = NoSignalingBox(obj["p"])
    except ValidationError as exc:
        raise ParseError(args.box, str(exc)) from exc
    _emit(args.out, chsh_to_json(box_chsh(box)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    m = _parse_bloch(args.m)
    n = _parse_bloch(args.n)
    if not all(map(math.isfinite, (args.start, args.stop, args.step))):
        raise ValidationError("sweep-grid", detail="start, stop and step must be finite")
    if args.step <= 0 or args.stop < args.start:
        raise ValidationError("sweep-grid", detail="need step > 0 and stop >= start")
    if not 0 < args.start <= 1:
        raise ValidationError("sweep-grid", detail="lambda grid must start in (0, 1]")
    stop = min(args.stop, 1.0)
    # A step under the float spacing at the loop's end could leave lam
    # unchanged by `lam += step`, and the loop would never end.
    if args.step < math.ulp(stop + SWEEP_END_SLACK):
        raise ValidationError("sweep-grid", detail=f"step {args.step!r} cannot advance lambda")
    rows = int((stop + SWEEP_END_SLACK - args.start) / args.step) + 1  # int floors: stop >= start
    if rows > SWEEP_MAX_ROWS:
        raise ValidationError("sweep-grid", detail=f"about {rows} rows, past {SWEEP_MAX_ROWS}")
    grid = []
    lam = args.start
    while lam <= stop + SWEEP_END_SLACK:
        grid.append(min(lam, 1.0))
        lam += args.step

    # Bob measures along m + n and m - n; for m = +/-n, any unit vector in the
    # place of the zero one contributes 0.
    bob = [BlochVector.normalized(v / np.linalg.norm(v) if np.linalg.norm(v) >= BOB_DIRECTION_CUTOFF
                                  else [0.0, 1.0, 0.0]) for v in (m.v + n.v, m.v - n.v)]
    values = smeared_chsh_values(
        singlet(), m.observable(), n.observable(), *(b.observable() for b in bob), grid
    )
    lines = ["lambda,feasible,smeared_chsh,bound"]
    for lam, verdict, value in zip(grid, qubit_verdicts(m, n, grid), values):
        lines.append(f"{_fifteen(lam)},{verdict},{_fifteen(value)},{_fifteen(2.0 / lam)}")
    _emit(args.out, None, text="\n".join(lines) + "\n")
    return 0


def _cmd_acceptance(args: argparse.Namespace) -> int:
    results = acceptance_mod.run_all()
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
    if args.out:
        _emit(args.out, payload)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The uj parser, built once per process: parse_args leaves it unchanged."""
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
    p.add_argument("--max-iter", type=int, default=20000)
    add_common(p)

    p = sub.add_parser("lambda-opt", help="largest feasible unsharpness")
    p.add_argument("--mode", choices=("pair", "worst-case"), default="pair")
    p.add_argument("--seed", type=int, default=2026)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnsharpJointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
