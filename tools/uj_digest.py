"""Digest every `uj` output of the benchmark's cli workload, for byte-identity checks.

Rebuilds the distinct argvs of the `cli` workload (perfbench/workloads.py,
imported read-only) for each seed, runs each in process through
`unsharpjoint.cli.main` and prints one sha256 per argv over its exit code,
stdout, stderr and `--out` bytes, then one total over all of them.  The
temporary working directory is replaced by a fixed token before hashing, so
two runs hash the same bytes whenever `uj` writes the same bytes.  Each argv
then runs again over a planted `--out` longer than its report, and the tool
exits non-zero unless that file ends up holding exactly the report's bytes:
`uj` writes `--out` in place, so a report not trimmed would keep a tail.

The cli's files reach d = 16 at most, so a library line digests the
outputs past it: one cycle of the `blocks` workload's op mix (projector
pairs up to d = 64, POVM pairs up to d = 16) for each seed, over every
`two_projector_blocks` unitary and its blocks and every report's witness,
`min_eigenvalue` and `marginal_residual`.  The cli's argvs never reach
`qubit_joint_observable`, `DensityMatrix.pure` on random states or the
oracle's qubit "yes", so a last line digests QUBIT_OPS ops of the `qubit`
and of the `oracle` workload for each seed: every report's verdict,
iterations, witness or certificate, `min_eigenvalue` and
`marginal_residual`, and for a qubit op its `check_joint` residuals,
`criterion_value` and both CHSH reports.  A fourth line digests the
acceptance verdicts: each criterion of `acceptance.CRITERIA`, run once, by
its number, name, passed flag and detail line, without its runtime.
Every argv so far succeeds, so a fifth line digests argvs that `uj` must
refuse (REFUSALS, on files planted in a temporary directory): each one's
exit code, stdout and stderr, with the directory replaced by the same token.
The tool exits non-zero if any of them exits 0.

Compare two trees of the package by running it against each `src/`:

    python tools/uj_digest.py --src /path/to/parent/src > parent.txt
    python tools/uj_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = tuple(range(101, 111))  # the cli workload's seeds
WORK_TOKEN = b"<work>"
QUBIT_OPS = 200  # ops of the qubit and of the oracle workload per seed

_Z = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
_HALF = [[0.5, 0.0], [0.0, 0.5]]
# The files the refused argvs read, by name under the work directory.
REFUSAL_FILES = {
    "z.json": _Z,
    "not-json.json": "{not json",
    "array.json": [1, 2],
    "true-entry.json": {"dim": 2, "re": [[True, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
    "mixed.json": {"yes": {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
                   "no": {"dim": 3, "re": [[0] * 3] * 3, "im": [[0] * 3] * 3}},
    "singlet.json": {"dim": 4, "re": [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]],
                     "im": [[0] * 4] * 4},
    "qutrit-a2.json": {"a1": _Z, "a2": {"dim": 3, "re": [[1, 0, 0], [0, 0, 0], [0, 0, 0]], "im": [[0] * 3] * 3},
                       "b1": _Z, "b2": _Z},
    "negative-cell.json": {"p": {"11": [[-0.25, 0.5], [0.5, 0.25]], "12": _HALF, "21": _HALF, "22": _HALF}},
}
_GRID = ["--start", "0.5", "--stop", "0.6", "--step", "0.1"]
# name -> an argv that uj must refuse; "{work}" is the work directory.
REFUSALS = {
    "missing-file": ["smear", "--obs", "{work}/missing.json", "--lambda", "0.5"],
    "not-json": ["smear", "--obs", "{work}/not-json.json", "--lambda", "0.5"],
    "json-array": ["smear", "--obs", "{work}/array.json", "--lambda", "0.5"],
    "true-entry": ["smear", "--obs", "{work}/true-entry.json", "--lambda", "0.5"],
    "mixed-dimension": ["smear", "--obs", "{work}/mixed.json", "--lambda", "0.5"],
    "lambda-0": ["smear", "--obs", "{work}/z.json", "--lambda", "0"],
    "lambda-nan": ["smear", "--obs", "{work}/z.json", "--lambda", "nan"],
    "sweep-m-not-numbers": ["sweep", "--m", "a,b,c", *_GRID],
    "sweep-m-zero": ["sweep", "--m", "0,0,0", *_GRID],
    "worst-case-with-m": ["lambda-opt", "--mode", "worst-case", "--m", "0,0,1"],
    "chsh-qutrit-a2": ["chsh", "--state", "{work}/singlet.json", "--settings", "{work}/qutrit-a2.json"],
    "box-negative-cell": ["box-chsh", "--box", "{work}/negative-cell.json"],
    "out-missing-directory": ["smear", "--obs", "{work}/z.json", "--lambda", "0.5",
                              "--out", "{work}/missing/out.json"],
}


def _digest(code: int, out: str, err: str, report: bytes | None, work: bytes) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), b"-" if report is None else report):
        part = part.replace(work, WORK_TOKEN)
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def digests(seeds) -> list[tuple[int, str, str]]:
    """(seed, "form-variant", sha256) for every distinct cli argv of each seed."""
    from perfbench.workloads import CLI_ARGVS, CliWorkload
    from unsharpjoint import cli

    rows = []
    with tempfile.TemporaryDirectory(prefix="uj-digest-") as tmp:
        for seed in seeds:
            workdir = Path(tmp) / str(seed)
            workload = CliWorkload(seed, workdir)
            workload.prepare()
            work = str(workdir).encode()
            for key in sorted(set(CLI_ARGVS), key=CLI_ARGVS.index):
                argv, _ = workload.argvs[key]
                out_path = Path(argv[argv.index("--out") + 1])
                out_path.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(argv))
                report = out_path.read_bytes() if out_path.exists() else None
                digest = _digest(code, stdout.getvalue(), stderr.getvalue(), report, work)
                rows.append((seed, f"{key[0]}-{key[1]}", digest))
                if report is not None:
                    out_path.write_bytes(b"#" * (len(report) + 4096))
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        cli.main(list(argv))
                    if out_path.read_bytes() != report:
                        raise SystemExit(f"error: {seed} {key[0]}-{key[1]}: a planted --out longer than the "
                                         "report was not rewritten to the report's bytes")
    return rows


def report(seeds) -> list[str]:
    """One "sha256  seed form-variant" line per argv, then their total."""
    rows = digests(seeds)
    total = hashlib.sha256(b"".join(bytes.fromhex(digest) for _, _, digest in rows))
    lines = [f"{digest}  {seed} {name}" for seed, name, digest in rows]
    return lines + [f"{total.hexdigest()}  total over {len(rows)} argvs"]


def _report_parts(rep) -> list[bytes]:
    """The bytes of a FeasibilityReport: witness (or "-"), min_eigenvalue, marginal_residual."""
    parts = [b"-"] if rep.witness is None else [e.matrix.tobytes() for e in rep.witness.effects]
    return parts + [float(rep.min_eigenvalue).hex().encode(), float(rep.marginal_residual).hex().encode()]


def _update(h, parts) -> None:
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)


def library_digest(seeds) -> str:
    """One "sha256  blocks library ..." line over one blocks op-mix cycle per seed."""
    from perfbench.workloads import BlocksWorkload

    h = hashlib.sha256()
    for seed in seeds:
        workload = BlocksWorkload(seed, Path(tempfile.gettempdir()))  # reads no file
        for index in range(workload.cycle):
            dec, rep, _ = workload.run(workload.make(index))
            parts = [] if dec is None else [dec.unitary.tobytes(), repr(
                [(b.dim, b.rank_p, b.rank_q, b.overlap.hex()) for b in dec.blocks]).encode()]
            _update(h, parts + _report_parts(rep))
    return f"{h.hexdigest()}  blocks library over {len(seeds)} seeds x {BlocksWorkload.cycle} ops"


def qubit_digest(seeds) -> str:
    """One "sha256  qubit/oracle library ..." line over QUBIT_OPS ops of each workload per seed."""
    from perfbench.workloads import OracleWorkload, QubitWorkload

    h = hashlib.sha256()
    for seed in seeds:
        qubit, oracle = (w(seed, Path(tempfile.gettempdir())) for w in (QubitWorkload, OracleWorkload))
        for index in range(QUBIT_OPS):
            rep, residuals, crit, sharp, smeared = qubit.run(qubit.make(index))
            fields = [crit] if residuals is None else [crit, residuals.normalization, residuals.marginal_first,
                                                       residuals.marginal_second, residuals.min_eigenvalue]
            for chsh in (sharp, smeared):
                fields += [*chsh.terms, chsh.value, chsh.bound_lambda]
            text = repr([float(x).hex() for x in fields] + [sharp.within_bound, smeared.within_bound])
            _update(h, [rep.feasible.encode(), *_report_parts(rep), text.encode()])
        for index in range(QUBIT_OPS):
            rep = oracle.run(oracle.make(index))
            evidence = b"-" if rep.certificate is None else rep.certificate.tobytes()
            _update(h, [rep.feasible.encode(), str(rep.iterations).encode(), evidence, *_report_parts(rep)])
    return f"{h.hexdigest()}  qubit/oracle library over {len(seeds)} seeds x {QUBIT_OPS} ops each"


def refusal_digests() -> list[tuple[str, str]]:
    """(name, sha256) for every argv of REFUSALS; SystemExit if uj accepts one."""
    from unsharpjoint import cli

    rows = []
    with tempfile.TemporaryDirectory(prefix="uj-refusals-") as tmp:
        for name, content in REFUSAL_FILES.items():
            (Path(tmp) / name).write_text(content if isinstance(content, str) else json.dumps(content))
        for name, argv in REFUSALS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([arg.format(work=tmp) for arg in argv])
            if code == 0:
                raise SystemExit(f"error: refusal {name}: uj exited 0 on an argv it must refuse")
            rows.append((name, _digest(code, stdout.getvalue(), stderr.getvalue(), None, tmp.encode())))
    return rows


def refusal_digest() -> str:
    """One "sha256  refusals over N argvs" line over the digests of refusal_digests."""
    rows = refusal_digests()
    total = hashlib.sha256(b"".join(bytes.fromhex(digest) for _, digest in rows))
    return f"{total.hexdigest()}  refusals over {len(rows)} argvs"


def acceptance_digest() -> str:
    """One "sha256  acceptance verdicts ..." line over every criterion of acceptance.CRITERIA.

    passed is the check's own verdict, before the time bound that run() adds,
    so the line does not move with the machine's speed."""
    from unsharpjoint.acceptance import CRITERIA

    h = hashlib.sha256()
    for number, name, check, _ in CRITERIA:
        passed, detail = check()
        _update(h, [str(number).encode(), name.encode(), str(bool(passed)).encode(), detail.encode()])
    return f"{h.hexdigest()}  acceptance verdicts over {len(CRITERIA)} criteria"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory of the package to run (default: this tree's)")
    args = parser.parse_args(argv)
    package = Path(args.src).resolve() / "unsharpjoint"
    if not (package / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no unsharpjoint package")
    sys.path[:0] = [str(package.parent), str(ROOT)]
    import unsharpjoint

    # An unsharpjoint imported before, or found first on sys.path, would be digested instead.
    if Path(unsharpjoint.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported unsharpjoint from {unsharpjoint.__file__}, not {package}")
    print("\n".join(report(SEEDS)))
    print(library_digest(SEEDS))
    print(qubit_digest(SEEDS))
    print(acceptance_digest())
    print(refusal_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
