#!/usr/bin/env python3
"""unsharpjoint benchmark: one closed-loop client, one process, no added threads.

    python3 perfbench/run.py --workload qubit --seed 1 --seconds 20 --trace 0

Runs one workload (``qubit``, ``oracle``, ``blocks``, ``cli`` or ``all``)
against the package under ``src/`` of the checkout this file sits in.
Inputs come from ``--seed``.  The number of ops is ``--seconds`` times the
workload's planned rate, never read off the clock, so a seed always gives
the same ops and the same failures.  Each op's output is checked against an
independent numpy reference.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass together with the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and one ``# meta`` JSON line with the
environment.  Failed ops are logged on stderr with their op index.  Op
times are CPU times scaled to a reference machine speed (calibration.py);
the table also shows the raw wall-clock values.  README.md defines every
workload and metric.

``--smoke`` runs every workload for a few ops, traced and untraced, and
exits non-zero unless every metric named in BENCHMARK.json is emitted and
the span self times of each traced op add up to its wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One client thread and nothing else: BLAS gets one thread unless the caller
# chose otherwise.  On a 2-vCPU host a 2-thread BLAS call stalls for ~15 ms
# whenever the other vCPU is busy.  Set before numpy is first imported;
# setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from calibration import Calibration, speed_factors  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "unsharpjoint"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("qubit", "oracle", "blocks", "cli")
SETUP_REPEATS = 7
WARMUP_OPS = 24
# ops_per_s is the median over this many consecutive windows of whole
# op-mix cycles, so that a burst of load from outside moves at most a
# window or two.
THROUGHPUT_WINDOWS = 10
# p99 needs at least ten samples beyond it.
MIN_OPS_FOR_P99 = 1000
# The untraced pass of a traced run makes this share of a run's ops; the
# traced pass then replays the same ops.
TRACE_UNTRACED_SHARE = 0.5
# A pass that has run this long stops at the next whole cycle of its op mix,
# so that a run on a much slower machine still ends within its time limit.
PASS_CAP_S = 75.0
# Slack allowed between the sum of an op's span self times and its wall time.
SELFTIME_SLACK_REL = 0.05
SELFTIME_SLACK_ABS = 200e-6
SMOKE_OPS = {"qubit": 6, "oracle": 6, "blocks": 6, "cli": 12}

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_library():
    """Import unsharpjoint from this checkout's src/, never from elsewhere."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE_DIR} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import unsharpjoint

    if Path(unsharpjoint.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"error: imported unsharpjoint from {unsharpjoint.__file__}, not {PACKAGE_DIR}")
    return unsharpjoint


# -- environment ---------------------------------------------------------------
def _blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.split()[-1].lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def _git_commit() -> str | None:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_stats() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def _meta(args, workload: str) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        **_src_stats(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "client": "single closed loop, one process, no added threads",
    }


# -- the loop ------------------------------------------------------------------
class Pass:
    """Outcome of running ops [0, n) of a workload once.

    latencies are CPU seconds per op, in op order, failed ops included;
    wall holds the same ops' wall seconds; factors scale each op to the
    reference machine speed (calibration.py).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.factors: list[float] = []
        self.ok: list[bool] = []
        self.wrong = 0
        self.outcomes = Counter()

    @property
    def scaled(self) -> list[float]:
        """Per-op CPU times at the reference machine speed."""
        return [t * f for t, f in zip(self.latencies, self.factors)]

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)



def _completed(values: list[float], res: Pass) -> list[float]:
    return sorted(v for v, ok in zip(values, res.ok) if ok)


def _planned_ops(wl, seconds: float, min_ops: int = 0) -> int:
    """Ops a pass of about `seconds` makes: whole cycles of the op mix, at least min_ops.

    The count follows from the arguments alone, never from the clock, so a
    seed always gives the same ops and the same failures.
    """
    n = max(min_ops, seconds * wl.ops_per_second)
    return wl.cycle * max(1, math.ceil(n / wl.cycle))


def _run_pass(wl, cal, n_ops: int, *, tracer=None, record: bool = True) -> Pass:
    """Run ops 0, 1, ..., n_ops - 1 once.

    Only the library call is timed; input generation, the check and the
    calibration sample before each op are not.  Past PASS_CAP_S the pass
    stops at a whole cycle and says so on stderr.
    """
    result = Pass()
    samples = []
    start = time.perf_counter()
    for i in range(n_ops):
        if i % wl.cycle == 0 and time.perf_counter() - start > PASS_CAP_S:
            _log(f"# warning: pass stopped after {i} of {n_ops} ops at {PASS_CAP_S:g} s")
            break
        op = wl.make(i)
        samples.append(cal.sample())
        error = out = None
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.begin_op(i, op.kind)
        try:
            out = wl.run(op)
        except Exception as exc:  # every exception is a failed op, typed or not
            error = f"{type(exc).__name__}: {exc}"
        cpu, dt = time.process_time() - c0, time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(dt)
            tracer.agg.bytes_out += wl.bytes_out(op)
        if error is None:
            try:
                result.outcomes[wl.check(op, out)] += 1
            except Exception as exc:  # a wrong output, or a check that could not run
                error = f"wrong output: {type(exc).__name__}: {exc}"
                result.wrong += 1
        if error is not None and record:
            result.outcomes["failed"] += 1
            _log(f"# failed op {i} ({op.kind}, seed {wl.seed}): {error}")
        result.latencies.append(cpu)
        result.wall.append(dt)
        result.ok.append(error is None)
    samples.append(cal.sample())
    result.factors = speed_factors(samples)
    return result


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def _throughput(res: Pass, latencies: list[float], cycle: int) -> float:
    """Completed ops per second of timed time; median over windows of whole cycles."""
    cycles = res.attempted // cycle
    windows = THROUGHPUT_WINDOWS if cycles >= THROUGHPUT_WINDOWS else 1
    rates = []
    for w in range(windows):
        lo, hi = (cycle * (cycles * k // windows) for k in (w, w + 1))
        if w == windows - 1:
            hi = res.attempted
        timed = sum(latencies[lo:hi])
        rates.append(sum(res.ok[lo:hi]) / timed if timed > 0 else 0.0)
    return statistics.median(rates)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_seconds(args, workload: str, workdir: Path, repeats: int, cal) -> tuple[float, float]:
    """Set-up time of a fresh interpreter: (scaled CPU, raw wall) medians over the probes.

    Each probe imports the package and finishes one fixed op.  Its CPU time
    is scaled like an op's, by the calibration samples taken just before
    and just after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    cpu, wall, samples = [], [], [cal.sample()]
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), _children_cpu()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        cpu.append(_children_cpu() - c0)
        wall.append(time.perf_counter() - t0)
        samples.append(cal.sample())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
    scaled = [t * f for t, f in zip(cpu, speed_factors(samples))]
    return statistics.median(scaled), statistics.median(wall)


def _setup_probe(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    op = wl.warmup_op()
    wl.check(op, wl.run(op))
    return 0


def run_workload(args, workload: str, *, max_ops: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 keep_spans: int = 0) -> dict:
    """One workload run; returns the result object plus what the table shows."""
    from workloads import WORKLOADS

    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](args.seed, workdir)
        wl.prepare()
        cal = Calibration()
        _run_pass(wl, cal, WARMUP_OPS if max_ops is None else 1, record=False)
        if args.trace:
            return _traced_run(args, wl, cal, max_ops, keep_spans)
        setup, setup_raw = _setup_seconds(args, workload, workdir, setup_repeats, cal)
        res = _run_pass(wl, cal, max_ops or _planned_ops(wl, args.seconds, MIN_OPS_FOR_P99))
        speed = statistics.median(res.factors)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, raw = {}, {}
        for out, lat, setup_s in ((metrics, res.scaled, setup), (raw, res.wall, setup_raw)):
            done = _completed(lat, res)
            out.update({
                "ops_per_s": _throughput(res, lat, wl.cycle),
                "op_p50_ms": 1e3 * _percentile(done, 0.50),
                "op_p99_ms": 1e3 * _percentile(done, 0.99),
                "success_ratio": len(done) / max(res.attempted, 1),
                "setup_s": setup_s,
                "peak_rss_mb": rss,
            })
        if res.attempted < MIN_OPS_FOR_P99 and max_ops is None:
            _log(f"# warning: {res.attempted} ops; p99 has fewer than 10 samples beyond it")
        return {
            "result": {
                "correct": res.wrong == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            },
            "raw": raw,
            "speed_factor": speed,
            "outcomes": dict(res.outcomes),
            "failed_ratio": res.failed / max(res.attempted, 1),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _traced_run(args, wl, cal, max_ops, keep_spans) -> dict:
    """Untraced pass, then a traced replay of the same ops; per-layer metrics."""
    from tracing import Tracer

    plain = _run_pass(wl, cal, max_ops or _planned_ops(wl, args.seconds * TRACE_UNTRACED_SHARE))
    tracer = Tracer(keep_ops=keep_spans)
    tracer.install()
    try:
        traced = _run_pass(wl, cal, plain.attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    n = traced.attempted
    t_plain = sum(plain.scaled[:n])
    t_traced = sum(traced.scaled)
    speed = statistics.median(traced.factors)
    layer = tracer.agg.metrics(speed)
    layer["trace.untraced_ops_per_s"] = (n / t_plain, "1/s")
    layer["trace.traced_ops_per_s"] = (n / t_traced, "1/s")
    layer["trace.overhead_ratio"] = (t_traced / t_plain - 1.0, "ratio")
    return {
        "result": {
            "correct": plain.wrong == 0 and traced.wrong == 0,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())},
        },
        "speed_factor": speed,
        "outcomes": dict(plain.outcomes),
        "failed_ratio": plain.failed / max(plain.attempted, 1),
        "tracer": tracer,
    }


# -- output --------------------------------------------------------------------
# ROADMAP baselines the traced table should reproduce at the seed commit.
SANITY = (
    ("qubit", "joint.qubit.eigensolves_per_yes", "16 eigensolves per qubit 'yes'"),
    ("oracle", "joint.oracle.iterations_per_no", "about 500 iterations per oracle 'no'"),
    ("blocks", "decompose.near_aligned_failed_ratio", "near-aligned block failures present (> 0)"),
)


def _print_table(workload: str, run: dict) -> None:
    res = run["result"]
    print(f"# workload {workload}: attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_ratio {run['failed_ratio']:.6g}), correct {res['correct']}")
    print(f"# outcomes {json.dumps(run['outcomes'], sort_keys=True)}")
    print(f"# times are at reference machine speed; median speed factor {run['speed_factor']:.4f}"
          + ("; raw wall-clock values in the last column" if "raw" in run else ""))
    raw = run.get("raw", {})
    for name, m in res["metrics"].items():
        extra = f"   raw {raw[name]:.6g}" if name in raw else ""
        print(f"{workload:>8}  {name:<46} {m['value']:>16.6g} {m['unit']}{extra}")
    for wl_name, metric, text in SANITY:
        if wl_name == workload and metric in res["metrics"]:
            print(f"# sanity ({text}): {metric} = {res['metrics'][metric]['value']:.6g}")


def _benchmark_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _smoke(args) -> int:
    end_to_end, per_layer = _benchmark_names()
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            args.trace = trace
            run = run_workload(args, workload, max_ops=SMOKE_OPS[workload], setup_repeats=1,
                               keep_spans=SMOKE_OPS[workload])
            _print_table(workload, run)
            res = run["result"]
            want = per_layer if trace else end_to_end
            missing = sorted(set(want) - set(res["metrics"]))
            if missing:
                problems.append(f"{workload} trace={trace}: missing metrics {missing}")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: wrong output")
            if trace:
                for gap, wall in run["tracer"].agg.selftime_gaps:
                    if gap > SELFTIME_SLACK_REL * wall + SELFTIME_SLACK_ABS:
                        problems.append(f"{workload}: span self times miss op wall time {wall:.6f}s by {gap:.6f}s")
                spans = [s for op in run["tracer"].kept for s in op]
                layers = {s.layer for s in spans}
                print(f"# {workload}: {len(spans)} spans kept, layers {sorted(layers)}")
    for p in problems:
        _log(f"# smoke: {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few ops per workload; self-check of the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    if args.setup_probe:
        return _setup_probe(args)
    if args.smoke:
        return _smoke(args)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print(f"# meta {json.dumps(_meta(args, args.workload), sort_keys=True)}")
    runs = {}
    for workload in names:
        runs[workload] = run_workload(args, workload)
        _print_table(workload, runs[workload])
    if len(names) == 1:
        final = runs[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{w}.{k}": v for w, r in runs.items() for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
