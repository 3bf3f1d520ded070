"""Command-line front end: file I/O, experiment orchestration, reports.

Every command reads operators in the row-major JSON format
{"dim": d, "re": [[...]], "im": [[...]]} and emits reports tagged with
"schema": "uj/1".  Reports are deterministic for fixed inputs and seed: JSON
is the text of json.dumps(report, sort_keys=True, indent=2) and a newline, by
_json; CSV has '.' decimals, ',' separators, LF endings, 15 significant digits.

argparse hands its namespace straight to the command handlers; each handler
range-checks the flags it reads (--lambda, --seed) before it opens any file.
jointly-measurable --oracle runs feasibility_oracle at its fixed budget,
joint.MAX_ITER iterations.  ParseError is for files alone: every file is read
through _load, so every bad input file is one ParseError naming the file.
Each handler returns its report and exit code, and main writes the report
through _emit, so an --out that cannot be written is one ParseError too;
acceptance opens its --out before the criteria run, so it fails at once.
Any other refusal (a flag, a --m or --n, operands of two files) is a ValidationError.
--out is written in place, over an existing file's bytes, and trimmed to the
report's length; the acceptance pre-check keeps an existing file's bytes until
the report replaces them.  After a failed write the file's content is
unspecified: the start of the report over what the file held before.

Exit status: 0 on success, 2 when an infeasible verdict meets
--expect-feasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import acceptance as acceptance_mod
from .bell import (
    ChshReport, NoSignalingBox, box_chsh, chsh, singlet, smeared_chsh, smeared_chsh_values
)
from .decompose import ANCILLA_CONVENTION, neumark_dilate, two_projector_blocks
from .errors import ParseError, UnsharpJointError, ValidationError
from .joint import (
    FeasibilityReport,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    qubit_verdicts,
    validate_seed,
    worst_case_pair,
)
from .operators import (
    SWEEP_END_SLACK,
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    Effect,
    Projector,
    matrix_from_json,
    matrix_to_json,
)
from .unsharp import smear, validate_lambda

SCHEMA = "uj/1"
SWEEP_MAX_ROWS = 10**5  # a row costs about 2 KB and 14 us; a larger grid is refused unbuilt


def _load(path: str, build):
    """build(obj) for the JSON object in a file.  Every failure is a ParseError
    naming the file: a file that cannot be read or decoded, a failed check, a
    missing key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, a huge int, too deep
        raise ParseError(path, str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected a JSON object, got {type(obj).__name__}")
    try:
        return build(obj)
    except ValidationError as exc:
        raise ParseError(path, str(exc)) from exc
    except KeyError as exc:
        raise ParseError(path, f"missing field {exc.args[0]!r}") from exc


def _observable(obj) -> DichotomicObservable:
    """Observable format: {"yes": op, "no": op} or a bare yes-effect operator;
    an object with "yes" and no "no" is a missing field."""
    if isinstance(obj, dict) and "yes" in obj:
        return DichotomicObservable(*(Effect(matrix_from_json(obj[key])) for key in ("yes", "no")))
    return DichotomicObservable.from_yes_effect(matrix_from_json(obj))


def _parse_bloch(text: str) -> BlochVector:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError("bloch-3-vector", detail=f"expected 'x,y,z', got {text!r}") from exc
    return BlochVector.normalized(np.array(parts))


def _report(kind: str, **fields) -> dict:
    """A report of this kind, tagged with the schema."""
    return {"schema": SCHEMA, "kind": kind, **fields}


def _outcome_map(prefix: str, matrices) -> dict:
    """The four matrices of the outcomes ++, +-, -+, -- under prefix_pp ... prefix_mm."""
    return {f"{prefix}_{key}": matrix_to_json(m) for key, m in zip(("pp", "pm", "mp", "mm"), matrices)}


def observable_to_json(obs: DichotomicObservable) -> dict:
    return _report(
        "observable",
        yes=matrix_to_json(obs.yes_effect.matrix),
        no=matrix_to_json(obs.no_effect.matrix),
    )


def feasibility_to_json(rep: FeasibilityReport) -> dict:
    payload = _report(
        "feasibility",
        feasible=rep.feasible,
        marginal_residual=rep.marginal_residual,
        min_eigenvalue=rep.min_eigenvalue,
        iterations=rep.iterations,
        witness=None if rep.witness is None
        else _outcome_map("g", (e.matrix for e in rep.witness.effects)),
    )
    if rep.certificate is not None:
        payload["certificate"] = _outcome_map("h", rep.certificate)
    return payload


def chsh_to_json(rep: ChshReport) -> dict:
    t11, t12, t21, t22 = rep.terms
    return _report(
        "chsh",
        value=rep.value,
        terms={"t11": t11, "t12": t12, "t21": t21, "t22": t22},
        bound_lambda=rep.bound_lambda,
        within_bound=rep.within_bound,
    )


def _write_out(out: str, data: bytes | None) -> None:
    """Write data over the file at --out in place, created if missing, and trim what is left
    of a longer file; None opens and closes it, keeping its bytes.  An OSError is one
    ParseError naming the path.  No O_TRUNC: on ext4, a file truncated to zero and written
    again frees and reallocates its blocks, about 20 times the cost of writing in place."""
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            if data is not None:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                if os.fstat(fd).st_size > len(data):  # 0 for a non-regular file: nothing to trim
                    os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        raise ParseError(out, exc.strerror or str(exc)) from exc


def _json(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for str keys, a list of floats
    in one C-level join; pad is obj's newline and indent.  TypeError where json raises one."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, float)):
        text = int.__repr__(obj) if isinstance(obj, int) else float.__repr__(obj)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    if isinstance(obj, (list, tuple, dict)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = "n"
        if "n" in text:  # an item that is not a float, or is nan or inf
            text = ("," + inner).join([_json(x, inner) for x in obj])
        return "[" + inner + text + pad + "]"
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(out: str | None, report) -> None:
    """Write the report to --out (or stdout): a str as it is, anything else as _json's JSON."""
    text = report if isinstance(report, str) else _json(report) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    _write_out(out, text.encode("utf-8"))


def _cmd_smear(args: argparse.Namespace) -> tuple[dict, int]:
    validate_lambda(args.lam)
    return observable_to_json(smear(_load(args.obs, _observable), args.lam)), 0


def _cmd_blocks(args: argparse.Namespace) -> tuple[dict, int]:
    p, q = (_load(f, lambda obj: Projector.from_matrix(matrix_from_json(obj))) for f in (args.p, args.q))
    dec = two_projector_blocks(p, q)
    # Each block's columns of the unitary follow those of the blocks before it.
    starts = itertools.accumulate((b.dim for b in dec.blocks), initial=0)
    return _report(
        "block-decomposition",
        unitary=matrix_to_json(dec.unitary),
        blocks=[
            {
                "dim": b.dim,
                "basis_columns": list(range(start, start + b.dim)),
                "rank_p": b.rank_p,
                "rank_q": b.rank_q,
                "overlap": b.overlap,
            }
            for b, start in zip(dec.blocks, starts)
        ],
    ), 0


def _cmd_dilate(args: argparse.Namespace) -> tuple[dict, int]:
    proj = neumark_dilate(_load(args.obs, _observable))
    return _report(
        "dilation",
        projector=matrix_to_json(proj.matrix),
        rank=proj.rank,
        convention=ANCILLA_CONVENTION,
    ), 0


def _cmd_jointly_measurable(args: argparse.Namespace) -> tuple[dict, int]:
    validate_lambda(args.lam)
    o1, o2 = (_load(f, _observable) for f in (args.o1, args.o2))
    if args.oracle:
        rep = feasibility_oracle(smear(o1, args.lam), smear(o2, args.lam))
    else:
        rep = povm_joint_observable(o1, o2, args.lam)
    return feasibility_to_json(rep), 2 if args.expect_feasible and rep.feasible != "yes" else 0


def _cmd_lambda_opt(args: argparse.Namespace) -> tuple[dict, int]:
    validate_seed(args.seed)
    given = {flag for flag in ("m", "n", "o1", "o2") if getattr(args, flag) is not None}
    if args.mode == "worst-case":
        if given:
            raise ValidationError(
                "lambda-opt-pair-inputs", detail="--mode worst-case takes no --m/--n/--o1/--o2"
            )
        a, b = worst_case_pair(args.seed)
    elif given == {"m", "n"}:
        a, b = _parse_bloch(args.m), _parse_bloch(args.n)
    elif given == {"o1", "o2"}:
        a, b = _load(args.o1, _observable), _load(args.o2, _observable)
    else:
        raise ValidationError("lambda-opt-pair-inputs", detail="need --m/--n or --o1/--o2")
    value = lambda_opt_search(a, b)
    if isinstance(a, BlochVector):
        pair_json = {"m": list(a.v), "n": list(b.v)}
    else:
        pair_json = {"o1": observable_to_json(a), "o2": observable_to_json(b)}
    return _report("lambda-opt", lambda_opt=value, pair=pair_json), 0


def _cmd_chsh(args: argparse.Namespace) -> tuple[dict, int]:
    if args.lam is not None:
        validate_lambda(args.lam)
    state = _load(args.state, lambda obj: DensityMatrix(matrix_from_json(obj)))
    settings = _load(args.settings,
                     lambda obj: [_observable(obj[key]) for key in ("a1", "a2", "b1", "b2")])
    rep = chsh(state, *settings) if args.lam is None else smeared_chsh(state, *settings, args.lam)
    return chsh_to_json(rep), 0


def _cmd_box_chsh(args: argparse.Namespace) -> tuple[dict, int]:
    box = _load(args.box, lambda obj: NoSignalingBox(obj["p"]))
    return chsh_to_json(box_chsh(box)), 0


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
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
        if lam >= 1.0:  # every later point would be clamped to this 1.0 again
            break
        lam += args.step

    # Bob measures along m + n and m - n; for m = +/-n, any unit vector in place of the zero one adds 0.
    bob = [BlochVector.normalized(v if v.any() else [0.0, 1.0, 0.0]) for v in (m.v + n.v, m.v - n.v)]
    values = smeared_chsh_values(
        singlet(), m.observable(), n.observable(), *(b.observable() for b in bob), grid
    )
    lines = ["lambda,feasible,smeared_chsh,bound"]
    for lam, verdict, value in zip(grid, qubit_verdicts(m, n, grid), values):
        lines.append(f"{lam:.15g},{verdict},{value:.15g},{2.0 / lam:.15g}")
    return "\n".join(lines) + "\n", 0


def _cmd_acceptance(args: argparse.Namespace) -> tuple[dict | None, int]:
    if args.out:  # an unwritable --out fails before the criteria run
        _write_out(args.out, None)
    results = acceptance_mod.run_all()
    all_passed = all(r.passed for r in results)
    report = _report(
        "acceptance",
        criteria=[
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "runtime_seconds": r.runtime,
            }
            for r in results
        ],
        all_passed=all_passed,
    )
    return report if args.out else None, 0 if all_passed else 1


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

    p = sub.add_parser("smear", help="smear an observable by lambda")
    p.add_argument("--obs", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("blocks", help="two-projector block decomposition")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = sub.add_parser("dilate", help="projective dilation of a dichotomic POVM")
    p.add_argument("--obs", required=True)

    p = sub.add_parser("jointly-measurable", help="joint measurability of a pair")
    p.add_argument("--o1", required=True)
    p.add_argument("--o2", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--oracle", action="store_true", help="use the alternating-projection oracle")
    p.add_argument("--expect-feasible", action="store_true", help="exit 2 unless feasible")

    p = sub.add_parser("lambda-opt", help="largest feasible unsharpness")
    p.add_argument("--mode", choices=("pair", "worst-case"), default="pair")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--m", help="Bloch vector 'x,y,z' for the first observable")
    p.add_argument("--n", help="Bloch vector 'x,y,z' for the second observable")
    p.add_argument("--o1", help="observable file (alternative to --m)")
    p.add_argument("--o2", help="observable file (alternative to --n)")

    p = sub.add_parser("chsh", help="CHSH report for a state and settings")
    p.add_argument("--state", required=True)
    p.add_argument("--settings", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="smear Alice's settings by this unsharpness")

    p = sub.add_parser("box-chsh", help="CHSH of a no-signaling box table")
    p.add_argument("--box", required=True)

    p = sub.add_parser("sweep", help="lambda sweep: verdict, smeared CHSH, bound")
    p.add_argument("--m", default="0,0,1")
    p.add_argument("--n", default="1,0,0")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    sub.add_parser("acceptance", help="run the acceptance criteria")

    for p in sub.choices.values():
        p.add_argument("--out", help="write the report to this path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
        if report is not None:
            _emit(args.out, report)
    except UnsharpJointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
