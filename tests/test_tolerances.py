"""The tolerance ledger: every tolerance of the package, named once in
operators, pinned here name by name, and the closed-form/oracle
disagreement band that two of them set.

A moved tolerance shows up as a one-line diff of LEDGER, a float literal
below 1e-3 anywhere else in the package fails the literal check, a read
of CRITERION_SLACK outside the one gate, joint._feasible, fails the gate
check, and a path chosen outside joint._decide fails the core check.
The acceptance criteria are exempt: their gate literals are printed in
their detail strings.  Refusals are pinned the same way: every raise in the
package raises a ValidationError but those of the files uj reads and writes,
and every operand dimension is checked by one helper.
"""

import ast
import importlib
import re
import tokenize
from pathlib import Path

import numpy as np

import unsharpjoint
from unsharpjoint import (
    BlochVector,
    check_joint,
    criterion_value,
    feasibility_oracle,
    qubit_joint_observable,
    smear,
)
from unsharpjoint import joint, operators
from unsharpjoint.operators import CRITERION_SLACK, PSD_TOL

SRC = Path(unsharpjoint.__file__).parent

LEDGER = {
    "HERMITIAN_TOL": 1e-10,
    "AFFINE_TOL": 1e-10,
    "PSD_TOL": 1e-9,
    "RANK_TOL": 1e-8,
    "JOINT_NORMALIZATION_TOL": 1e-9,
    "BLOCH_NORM_TOL": 1e-12,
    "CRITERION_SLACK": 1e-12,
    "QUBIT_WITNESS_TOL": 1e-11,
    "CERTIFICATE_MARGIN": 1e-12,
    "ANDERSON_TIKHONOV": 1e-10,
    "CLUSTER_TOL": 1e-10,
    "BLOCK_RESIDUAL_TOL": 1e-9,
    "UNITARITY_TOL": 1e-10,
    "BOX_TOL": 1e-12,
    "CHSH_BOUND_SLACK": 1e-9,
    "SWEEP_END_SLACK": 1e-12,
    "BOB_DIRECTION_CUTOFF": 1e-12,
}

# module -> the ledger names it used to define, still importable from it.
MOVED = {
    "decompose": ("CLUSTER_TOL", "BLOCK_RESIDUAL_TOL", "UNITARITY_TOL"),
    "joint": ("CRITERION_SLACK", "CERTIFICATE_MARGIN"),
}

# A ledger line of operators.py: one name, one literal, and a comment that
# says whether the bound is absolute or relative and what it bounds.
LEDGER_LINE = re.compile(r"^([A-Z][A-Z0-9_]*) = (\S+)  # (abs|rel): \S")


def _ledger_lines() -> dict:
    lines = (SRC / "operators.py").read_text(encoding="utf-8").splitlines()
    return {m[1]: ast.literal_eval(m[2]) for m in map(LEDGER_LINE.match, lines) if m}


def test_ledger_is_pinned():
    assert _ledger_lines() == LEDGER
    assert {name: getattr(operators, name) for name in LEDGER} == LEDGER


def test_moved_names_stay_importable():
    for module, names in MOVED.items():
        mod = importlib.import_module(f"unsharpjoint.{module}")
        for name in names:
            assert getattr(mod, name) is getattr(operators, name)


def test_no_bare_tolerance_literal():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "acceptance.py":
            continue
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER or not 0 < abs(ast.literal_eval(tok.string)) < 1e-3:
                    continue
                if path.name == "operators.py" and LEDGER_LINE.match(tok.line):
                    continue
                bare.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not bare


# The raises that are no ValidationError: "module.function" -> the one type it raises.
OTHER_RAISES = {
    "cli._load": "ParseError",  # a file uj cannot read, or whose content is refused
    "cli._write_out": "ParseError",  # an --out uj cannot write
    "cli._json": "TypeError",  # what json.dumps raises for a value it cannot write
}


def _scoped(tree: ast.AST, scope: str = "<module>"):
    """(the enclosing function's name, node) for every node under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(node, node.name)
        else:
            yield scope, node
            yield from _scoped(node, scope)


def _readers(tree: ast.AST, name: str):
    """The enclosing function of every read of name (a Name or an attribute)."""
    for scope, node in _scoped(tree):
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name):
            yield scope


def _modules():
    """(module name, its AST) for every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_raise_is_a_validation_error_but_a_file_s():
    # One refusal type: a value or a combination of values the package refuses
    # is a ValidationError, and callers branch on its invariant.
    odd = []
    for module, tree in _modules():
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc else "<bare raise>"
                if name != "ValidationError" and OTHER_RAISES.get(f"{module}.{scope}") != name:
                    odd.append(f"{module}.{scope}: {name}")
    assert not odd


def test_one_helper_refuses_operands_of_different_dimension():
    # operators._same_dim checks that operands share one dimension; only the
    # CHSH table, whose state lives on Alice's space times Bob's, has its own rule.
    sites = [f"{module}.{scope}" for module, tree in _modules() for scope, node in _scoped(tree)
             if isinstance(node, ast.Constant) and node.value == "same-dimension"]
    assert sites == ["bell._table", "operators._same_dim"]


def test_one_gate_reads_the_criterion_slack():
    # Every closed-form verdict passes joint._feasible; a second copy of the
    # gate would read CRITERION_SLACK somewhere else.
    readers = [f"{module}.{scope}" for module, tree in _modules() for scope in _readers(tree, "CRITERION_SLACK")]
    assert readers == ["joint._feasible"]


def test_one_core_picks_the_path():
    # joint._decide alone chooses among the witness, a closed-form "no" and the
    # oracle, and the operator pair builders and the oracle's warm start (the
    # midpoint witness of the smeared contrasts) alone take |A+B| and |A-B|; a
    # second copy of either would call these somewhere else.
    tree = ast.parse((SRC / "joint.py").read_text(encoding="utf-8"))
    callers = {name: sorted(set(_readers(tree, name)))
               for name in ("feasibility_oracle", "_witnesses", "_feasible", "_abs_pair")}
    assert callers == {
        "feasibility_oracle": ["_decide"],
        "_witnesses": ["_decide", "feasibility_oracle", "qubit_verdicts"],
        "_feasible": ["_decide", "lambda_opt_search", "qubit_verdicts"],
        "_abs_pair": ["_observable_pair", "_projector_pair", "feasibility_oracle"],
    }


def test_closed_form_and_oracle_disagree_only_inside_the_band(monkeypatch):
    """The band is (2 + CRITERION_SLACK, 2 + 8 PSD_TOL] in criterion value,
    at lam above 1/sqrt(2): since top <= 2 sqrt(2), a value past 2 puts lam there.

    Past 2 + CRITERION_SLACK the closed form says "no".  The oracle says
    "yes" once an affine point is PSD to -PSD_TOL, and the qubit midpoint
    witness has smallest eigenvalue (2 - value) / 8, so up to 2 + 8 PSD_TOL
    the oracle still finds one.  Outside the band the two never contradict
    each other; "undetermined" above it is allowed (ROADMAP item 6).
    """
    lo, hi = 2.0 + CRITERION_SLACK, 2.0 + 8.0 * PSD_TOL
    monkeypatch.setattr(joint, "MAX_ITER", 300)
    rng = np.random.default_rng(9)
    for _ in range(12):
        m, n = (BlochVector.normalized(v) for v in rng.normal(size=(2, 3)))
        top = criterion_value(m, n, 1.0)
        for target in (2.0 - 8.0 * PSD_TOL, 2.0 + CRITERION_SLACK / 2, 2.0 + 0.9 * 8.0 * PSD_TOL,
                       2.0 + 1.1 * 8.0 * PSD_TOL):
            lam = target / top
            value = criterion_value(m, n, lam)
            closed = qubit_joint_observable(m, n, lam).feasible
            oracle = feasibility_oracle(smear(m.observable(), lam), smear(n.observable(), lam)).feasible
            if value <= lo:
                assert (closed, oracle) in {("yes", "yes"), ("yes", "undetermined")}
            elif value > hi:
                assert (closed, oracle) in {("no", "no"), ("no", "undetermined")}
            else:  # the band itself: the oracle finds the witness the closed form refuses
                assert (closed, oracle) == ("no", "yes")


def test_the_oracle_decides_criterion_5_s_in_band_pairs():
    """Criterion 5 leaves out the pairs within 0.02 of the criterion's 2; the
    oracle decides each as the exact Bloch-pair verdict does, with its evidence."""
    rng = np.random.default_rng(505)
    banded = 0
    for _ in range(1000):  # criterion 5's draws, in its order
        m, n = (BlochVector(v / np.linalg.norm(v)) for v in (rng.normal(size=3), rng.normal(size=3)))
        lam = float(rng.uniform(0.3, 0.95))
        value = criterion_value(m, n, lam)
        if abs(value - 2.0) >= 0.02:
            continue
        banded += 1
        o1lam, o2lam = smear(m.observable(), lam), smear(n.observable(), lam)
        rep = feasibility_oracle(o1lam, o2lam)
        assert rep.feasible == ("yes" if value <= 2.0 else "no"), value
        assert rep.iterations <= 12
        if rep.feasible == "yes":
            res = check_joint(rep.witness, o1lam, o2lam)
            assert res.marginal_max <= 1e-9 and res.min_eigenvalue >= -1e-9
        else:
            assert rep.certificate is not None
    assert banded == 17
