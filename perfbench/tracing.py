"""Span tracing of the unsharpjoint layers, installed from outside the package.

``Tracer.install`` wraps, at run time, every public function of the six
layer modules (``operators``, ``unsharp``, ``decompose``, ``joint``,
``bell``, ``cli``) and every public method and ``__post_init__`` validation
of the classes they define, then rebinds each wrapped function under every
name the package's modules (and the package itself) import it by.  Nothing
under ``src/`` is written; ``uninstall`` restores every binding.

Each call opens a span: name, layer, start, end, parent span and op id.
Spans are single-threaded and strictly nested, so a span's self time is its
duration minus the summed durations of its direct children.  Calls to
``numpy.linalg.eigh``/``eigvalsh``/``svd`` are counted and charged to the
innermost open span.  Spans are kept in memory for the op in progress and
folded into per-layer totals when the op ends; the spans of the first
``keep_ops`` ops are retained for inspection.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("operators", "unsharp", "decompose", "joint", "bell", "cli")
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
ROOT_LAYER = "bench"

VALIDATIONS = frozenset(
    f"operators.{cls}.__post_init__"
    for cls in ("Effect", "DichotomicObservable", "Projector", "DensityMatrix")
)
CONSTRUCTIONS = frozenset(
    f"joint.{fn}" for fn in ("qubit_joint_observable", "pvm_joint_observable", "povm_joint_observable")
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op_id", "child", "eig", "eig_incl",
                 "error", "result")

    def __init__(self, name, layer, parent, op_id):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op_id = op_id
        self.child = 0.0
        self.eig = 0
        self.eig_incl = 0
        self.error = None
        self.result = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def has_ancestor(self, name: str) -> bool:
        s = self.parent
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


class Tracer:
    def __init__(self, package: str = "unsharpjoint", keep_ops: int = 0):
        self.package = package
        self.keep_ops = keep_ops
        self.stack: list[Span] = []
        self.op_spans: list[Span] = []
        self.kept: list[list[Span]] = []
        self.op_id = None
        self.agg = Aggregate()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name, layer) -> Span:
        span = Span(name, layer, self.stack[-1] if self.stack else None, self.op_id)
        self.op_spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child += span.end - span.start
            parent.eig_incl += span.eig_incl

    def begin_op(self, op_id, tag: str) -> None:
        self.op_id = op_id
        self.op_spans = []
        self._open(f"{ROOT_LAYER}.op", ROOT_LAYER).result = tag

    def end_op(self, wall: float) -> list[Span]:
        """Close the op's root span and fold its spans into the totals.

        wall is the op's wall time as timed by the caller around begin_op
        and the op itself.
        """
        root = self.op_spans[0]
        self._close(root)
        spans = self.op_spans
        self.agg.add(spans, root.result, wall)
        if len(self.kept) < self.keep_ops:
            self.kept.append(spans)
        self.op_spans = []
        return spans

    # -- installation ------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                tracer._close(span)
                raise
            span.result = result
            tracer._close(span)
            return result

        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                span = tracer.stack[-1]
                span.eig += 1
                span.eig_incl += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module(self.package)
        modules = [importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        namespaces = [package] + [
            importlib.import_module(n) for n in sorted(m for m in _package_modules(self.package))
        ]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(ns, name, wrapped[obj])
        for solver in EIGENSOLVERS:
            self._set(np.linalg, solver, self._count(getattr(np.linalg, solver)))

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr != "__post_init__" and attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules(package: str):
    prefix = package + "."
    return [name for name in sys.modules if name.startswith(prefix)]


class Aggregate:
    """Per-layer totals over the traced ops."""

    def __init__(self):
        self.ops = 0
        self.spans = 0
        self.layer_self = defaultdict(float)
        self.layer_eig = Counter()
        self.name_self = defaultdict(float)
        self.calls = Counter()
        self.validations = 0
        self.oracle = Counter()
        self.oracle_iters = Counter()
        self.blocks = Counter()
        self.near_blocks = Counter()
        self.lambda_opt_constructions = 0
        self.qubit_yes = 0
        self.qubit_yes_eig = 0
        self.bytes_out = 0  # report bytes the ops wrote, added by the harness
        self.selftime_gaps = []  # (|sum of span self times - op wall time|, op wall time)

    def add(self, spans, tag: str, wall: float) -> None:
        self.ops += 1
        self.spans += len(spans)
        total_self = 0.0
        for s in spans:
            st = s.self_time
            total_self += st
            self.layer_self[s.layer] += st
            self.layer_eig[s.layer] += s.eig
            self.name_self[s.name] += st
            self.calls[s.name] += 1
            name = s.name
            if name in VALIDATIONS:
                self.validations += 1
            elif name == "joint.feasibility_oracle" and s.error is None:
                self.oracle[s.result.feasible] += 1
                self.oracle_iters[s.result.feasible] += s.result.iterations
            elif name == "decompose.two_projector_blocks":
                self.blocks["calls"] += 1
                self.blocks["failed"] += s.error is not None
                if tag == "pvm-near":
                    self.near_blocks["calls"] += 1
                    self.near_blocks["failed"] += s.error is not None
            if name in CONSTRUCTIONS:
                if s.has_ancestor("joint.lambda_opt_search"):
                    self.lambda_opt_constructions += 1
                if name == "joint.qubit_joint_observable" and s.error is None and s.result.feasible == "yes":
                    self.qubit_yes += 1
                    self.qubit_yes_eig += s.eig_incl
        self.selftime_gaps.append((abs(total_self - wall), wall))

    def metrics(self, speed: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each (value, unit); all per traced op.

        Self times are multiplied by speed, the run's median calibration
        factor, to put them at the reference machine speed.
        """
        ops = max(self.ops, 1)

        def ms(seconds):
            return (1e3 * seconds * speed / ops, "ms")

        def per_op(count):
            return (count / ops, "count")

        def ratio(num, den, unit="ratio"):
            return (num / den if den else 0.0, unit)

        def self_ms(name):
            return ms(self.name_self[name])

        n_oracle = sum(self.oracle.values())
        out = {
            "operators.validations_per_op": per_op(self.validations),
            "operators.eigensolves_per_op": per_op(self.layer_eig["operators"]),
            "unsharp.smear_calls_per_op": per_op(self.calls["unsharp.smear"]),
            "decompose.two_projector_blocks.self_ms_per_op": self_ms("decompose.two_projector_blocks"),
            "decompose.neumark_dilate.self_ms_per_op": self_ms("decompose.neumark_dilate"),
            "decompose.compress.self_ms_per_op": self_ms("decompose.compress"),
            "decompose.eigensolves_per_op": per_op(self.layer_eig["decompose"]),
            "decompose.failed_ratio": ratio(self.blocks["failed"], self.blocks["calls"]),
            "decompose.near_aligned_failed_ratio": ratio(self.near_blocks["failed"], self.near_blocks["calls"]),
            "joint.qubit.self_ms_per_op": self_ms("joint.qubit_joint_observable"),
            "joint.qubit.eigensolves_per_yes": ratio(self.qubit_yes_eig, self.qubit_yes, "count"),
            "joint.check_joint.self_ms_per_op": self_ms("joint.check_joint"),
            "joint.pvm.self_ms_per_op": self_ms("joint.pvm_joint_observable"),
            "joint.povm.self_ms_per_op": self_ms("joint.povm_joint_observable"),
            "joint.oracle.self_ms_per_op": self_ms("joint.feasibility_oracle"),
            "joint.oracle.calls_per_op": per_op(n_oracle),
            "joint.oracle.iterations_per_no": ratio(self.oracle_iters["no"], self.oracle["no"], "count"),
            "joint.oracle.iterations_per_yes": ratio(self.oracle_iters["yes"], self.oracle["yes"], "count"),
            "joint.oracle.no_share": ratio(self.oracle["no"], n_oracle),
            "joint.oracle.undetermined_share": ratio(self.oracle["undetermined"], n_oracle),
            "joint.eigensolves_per_op": per_op(self.layer_eig["joint"]),
            "joint.lambda_opt.constructions_per_op": per_op(self.lambda_opt_constructions),
            "joint.lambda_opt.self_ms_per_op": self_ms("joint.lambda_opt_search"),
            "bell.chsh.self_ms_per_op": self_ms("bell.chsh"),
            "bell.smeared_chsh.self_ms_per_op": self_ms("bell.smeared_chsh"),
            "bell.correlation_calls_per_op": per_op(self.calls["bell.correlation"]),
            "cli.bytes_out_per_op": (self.bytes_out / ops, "bytes"),
            "trace.spans_per_op": per_op(self.spans),
        }
        for layer in LAYERS + (ROOT_LAYER,):
            out[f"{layer}.self_ms_per_op"] = ms(self.layer_self[layer])
        return out
