"""A/B benchmark of two trees of the package: alternating perfbench runs, summarized.

Extracts the parent and the change into one temporary directory, each as a
git revision of this repository (`git archive`) or a copy of a directory
(default for the change: this working tree, without .git and caches).  For
each workload and seed it runs `perfbench/run.py`, unchanged, in each tree
as a subprocess, one run per side per pair, and alternates from pair to pair
which side runs first.  It writes one JSON file with

* `runs`: every run, by workload, seed and pair, with the last line that
  run.py printed and whether that side ran first;
* `summary`: per workload, seed and metric, each side's median and
  quartiles (numpy's linear percentiles), the change's median over the
  parent's, the pairs in which the change did better, and whether the gap
  between the medians exceeds the parent's interquartile range;
* `uj_digest`: the seven summary lines of `tools/uj_digest.py --src` on each
  tree and the labels of every digest line that differs.

Directions come from BENCHMARK.json; no bound is judged here.

    python tools/uj_ab.py --parent HEAD~1 --workloads oracle --seeds 1,11 \\
        --pairs 10 --seconds 20 --out BENCH_48.json

`--smoke` runs `run.py --smoke` once per side instead (one pair, no
metrics) and skips the digest: a self-check of the runner, in seconds.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("qubit", "oracle", "blocks", "cli")
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-work",
                                  "*.egg-info")


def extract(spec: str, dest: Path) -> str:
    """Put the tree named by spec, a directory or a git revision of ROOT, at dest; return what it was."""
    if Path(spec).is_dir():
        shutil.copytree(spec, dest, ignore=_IGNORED)
        return f"directory {Path(spec).resolve()}"
    commit = _git("rev-parse", "--verify", f"{spec}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return f"commit {commit}"


def _git(*args) -> bytes:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, timeout=120)
    if proc.returncode:
        raise SystemExit(f"error: git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def run_once(tree: Path, argv: list[str]) -> dict:
    """One perfbench/run.py run in tree: its last stdout line, a JSON object."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree, capture_output=True,
                          text=True, timeout=3600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: run.py {' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(trees: dict, cells, pairs: int, argv_of) -> dict:
    """runs[workload][seed][pair][side] for each (workload, seed) cell; the first side alternates."""
    runs, first = {}, 0
    for workload, seed in cells:
        cell = runs.setdefault(workload, {}).setdefault(str(seed), {})
        for pair in range(pairs):
            order = ("parent", "change") if first % 2 == 0 else ("change", "parent")
            first += 1
            cell[str(pair + 1)] = {side: {"ran_first": side == order[0],
                                          **run_once(trees[side], argv_of(workload, seed))}
                                   for side in order}
    return runs


def summarize(runs: dict, directions: dict) -> dict:
    """summary[workload][seed][metric] over the pairs of runs, for each metric both sides report."""
    summary = {}
    for workload, seeds in runs.items():
        for seed, cell in seeds.items():
            pairs = list(cell.values())
            names = set.intersection(*(set(p[side].get("metrics", {})) for p in pairs for side in p))
            out = summary.setdefault(workload, {}).setdefault(seed, {})
            for name in sorted(names):
                values = {side: np.array([p[side]["metrics"][name]["value"] for p in pairs], dtype=float)
                          for side in ("parent", "change")}
                q = {side: np.percentile(v, [25, 50, 75]) for side, v in values.items()}
                sign = 1.0 if directions[name] == "higher" else -1.0
                better = int(np.sum(sign * (values["change"] - values["parent"]) > 0))
                out[name] = {
                    "better": directions[name],
                    "parent_median": q["parent"][1], "parent_q1": q["parent"][0], "parent_q3": q["parent"][2],
                    "change_median": q["change"][1], "change_q1": q["change"][0], "change_q3": q["change"][2],
                    "change_over_parent": q["change"][1] / q["parent"][1] if q["parent"][1] else None,
                    "pairs_change_better": f"{better}/{len(pairs)}",
                    "median_gap_exceeds_parent_iqr": bool(
                        abs(q["change"][1] - q["parent"][1]) > q["parent"][2] - q["parent"][0]),
                }
    return summary


def digest(tree: Path) -> list[str]:
    """The lines of this tree's tools/uj_digest.py run against tree/src."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "uj_digest.py"), "--src", str(tree / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=3600)
    if proc.returncode:
        raise SystemExit(f"error: uj_digest.py --src {tree / 'src'} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def compare_digests(parent: list[str], change: list[str]) -> dict:
    """The digest's summary lines of both trees and the labels of the lines that differ."""
    label = lambda line: line.split("  ", 1)[1]  # noqa: E731
    moved = [label(b) for a, b in zip(parent, change) if a != b]
    return {"parent": parent[-7:], "change": change[-7:], "moved": moved}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a git revision or a directory")
    parser.add_argument("--change", default=str(ROOT), help="a git revision or a directory (default: this tree)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,11")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--smoke", action="store_true", help="one run.py --smoke per side, no digest")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    if not set(workloads) <= set(WORKLOADS) or args.pairs < 1 or args.seconds <= 0:
        parser.error(f"need workloads among {','.join(WORKLOADS)}, --pairs >= 1 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory(prefix="uj-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        sources = {side: extract(getattr(args, side), trees[side]) for side in trees}
        if args.smoke:
            runs = run_pairs(trees, [("smoke", 0)], 1, lambda workload, seed: ["--smoke"])
            digests = None
        else:  # the digests first: a tree the digest refuses costs no runs
            digests = compare_digests(digest(trees["parent"]), digest(trees["change"]))
            cells = [(w, s) for w in workloads for s in seeds]
            runs = run_pairs(trees, cells, args.pairs, lambda workload, seed: [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"])
    record = {
        "parent": sources["parent"],
        "change": sources["change"],
        "command": "python3 perfbench/run.py " + ("--smoke" if args.smoke else
                                                  f"--workload W --seed S --seconds {args.seconds:g} --trace 0"),
        "pairs": args.pairs if not args.smoke else 1,
        "started": started,
        "ended": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}",
        "summary": summarize(runs, directions),
        "uj_digest": digests,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
