"""The public surface: every name in unsharpjoint.__all__, the parameters
of every callable among them and the members of every class.

A parameter added to or removed from a public callable, a name added to or
removed from the package, or a method, property or field added to or
removed from a public class shows up here as a one-line diff.  Annotations
are left out, so only names, kinds and defaults are pinned.  Every pinned
name also needs a caller in the package, the benchmark or the tools.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import unsharpjoint

# name -> its parameters, or None for a constant and for UnsharpJointError,
# which keeps Exception's builtin signature.
SURFACE = {
    "ANCILLA_CONVENTION": None,
    "Block": '(dim, rank_p, rank_q, overlap)',
    "BlockDecomposition": '(unitary, blocks)',
    "BlochVector": '(v)',
    "ChshReport": '(value, terms, bound_lambda, within_bound)',
    "DensityMatrix": '(matrix)',
    "DichotomicObservable": '(yes_effect, no_effect)',
    "DimensionMismatch": '(*dims)',
    "Effect": '(matrix)',
    "FeasibilityReport": '(feasible, witness, marginal_residual, min_eigenvalue, iterations, certificate=None)',
    "JointObservable": '(g_pp, g_pm, g_mp, g_mm)',
    "JointResiduals": '(normalization, marginal_first, marginal_second, min_eigenvalue)',
    "LAMBDA_OPT": None,
    "NoSignalingBox": '(table)',
    "ParseError": '(path, detail)',
    "Projector": '(matrix, rank)',
    "TSIRELSON_BOUND": None,
    "UnsharpJointError": None,
    "ValidationError": "(invariant, residual=None, detail='')",
    "box_chsh": '(box)',
    "check_joint": '(j, o1lam, o2lam)',
    "chsh": '(state, a1, a2, b1, b2)',
    "compress": '(g)',
    "criterion_value": '(m, n, lam)',
    "feasibility_oracle": '(o1lam, o2lam)',
    "lambda_opt_search": '(a, b)',
    "local_deterministic_boxes": '()',
    "matrix_from_json": '(obj)',
    "matrix_to_json": '(m)',
    "mean_value": '(obs, state)',
    "neumark_dilate": '(obs)',
    "optimal_settings": '()',
    "povm_joint_observable": '(o1, o2, lam)',
    "pr_box": '()',
    "pvm_joint_observable": '(p1, p2, lam)',
    "qubit_joint_observable": '(m, n, lam)',
    "singlet": '()',
    "smear": '(obs, lam)',
    "smeared_chsh": '(state, a1, a2, b1, b2, lam)',
    "two_projector_blocks": '(p, q)',
    "validate_lambda": '(lam)',
    "worst_case_pair": '(seed)',
}

# class -> the public attributes that the package's own classes in its MRO
# define (methods, properties, class attributes and dataclass fields), with
# __bool__ and __float__; builtin bases such as Exception are skipped, so
# the pin does not move with the Python version.
MEMBERS = {
    "Block": ('dim', 'overlap', 'rank_p', 'rank_q'),
    "BlockDecomposition": ('blocks', 'unitary'),
    "BlochVector": ('normalized', 'observable', 'v'),
    "ChshReport": ('bound_lambda', 'terms', 'value', 'within_bound'),
    "DensityMatrix": ('dim', 'matrix', 'pure'),
    "DichotomicObservable": ('difference', 'dim', 'from_yes_effect', 'no_effect', 'yes_effect'),
    "DimensionMismatch": (),
    "Effect": ('complement', 'dim', 'matrix'),
    "FeasibilityReport": ('__bool__', 'certificate', 'feasible', 'iterations', 'marginal_residual', 'min_eigenvalue', 'witness'),
    "JointObservable": ('dim', 'effects', 'g_mm', 'g_mp', 'g_pm', 'g_pp', 'min_eigenvalue'),
    "JointResiduals": ('marginal_first', 'marginal_max', 'marginal_second', 'min_eigenvalue', 'normalization'),
    "NoSignalingBox": ('correlators', 'p'),
    "ParseError": (),
    "Projector": ('as_effect', 'dim', 'from_matrix', 'matrix', 'observable', 'rank'),
    "UnsharpJointError": (),
    "ValidationError": (),
}


def _parameters(obj):
    try:
        sig = inspect.signature(obj)
    except ValueError:  # a builtin signature
        return None
    bare = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=inspect.Signature.empty))


def test_all_is_pinned():
    assert list(unsharpjoint.__all__) == list(SURFACE)


def test_signatures_are_pinned():
    got = {
        name: _parameters(obj) if callable(obj) else None
        for name, obj in ((n, getattr(unsharpjoint, n)) for n in unsharpjoint.__all__)
    }
    assert got == SURFACE


def _members(cls):
    names = set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("unsharpjoint."):
            names.update(n for n in vars(klass) if not n.startswith("_") or n in ("__bool__", "__float__"))
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))
    return tuple(sorted(names))


def test_class_members_are_pinned():
    got = {
        name: _members(obj)
        for name, obj in ((n, getattr(unsharpjoint, n)) for n in unsharpjoint.__all__)
        if inspect.isclass(obj)
    }
    assert got == MEMBERS


# Where a public name needs a reader: tests build inputs but are no callers.
CALLER_DIRS = ("src", "perfbench", "tools")


def _reads(node, inside=frozenset()):
    """The names that node loads, as a bare name or an attribute, outside the
    body of any def or class of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    reads = set()
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        reads.add(node.id if isinstance(node, ast.Name) else node.attr)
    for child in ast.iter_child_nodes(node):
        reads |= _reads(child, inside)
    return reads - inside


def test_every_public_name_has_a_caller():
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (p for d in CALLER_DIRS for p in (root / d).rglob("*.py")):
        if path.name != "__init__.py" and not path.name.startswith("test_"):
            read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    public = set(unsharpjoint.__all__).union(*MEMBERS.values())
    assert sorted(n for n in public - read if not n.startswith("__")) == []
