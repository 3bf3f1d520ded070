"""The public surface: every name in unsharpjoint.__all__ and the parameters
of every callable among them.

A parameter added to or removed from a public callable, or a name added to
or removed from the package, shows up here as a one-line diff.  Annotations
are left out, so only names, kinds and defaults are pinned.
"""

import inspect

import unsharpjoint

# name -> its parameters, or None for a constant and for UnsharpJointError,
# which keeps Exception's builtin signature.
SURFACE = {
    "ANCILLA_CONVENTION": None,
    "Block": '(dim, basis_columns, rank_p, rank_q, overlap)',
    "BlockDecomposition": '(unitary, blocks)',
    "BlochVector": '(v)',
    "ChshReport": '(value, terms, bound_lambda, within_bound)',
    "DensityMatrix": '(matrix)',
    "DichotomicObservable": '(yes_effect, no_effect)',
    "DimensionMismatch": '(*dims)',
    "Effect": '(matrix)',
    "FeasibilityReport": '(feasible, witness, marginal_residual, min_eigenvalue, iterations, certificate=None)',
    "InvalidBox": "(invariant, residual=None, detail='')",
    "JointObservable": '(g_pp, g_pm, g_mp, g_mm)',
    "JointResiduals": '(normalization, marginal_first, marginal_second, min_eigenvalue)',
    "LAMBDA_OPT": None,
    "LambdaOptResult": '(value, pair, oracle_verdict)',
    "NeumarkDilation": "(projector, convention='system-tensor-ancilla; ancilla state = index 0 of last factor')",
    "NoSignalingBox": '(table)',
    "NotEffect": "(invariant, residual=None, detail='')",
    "NotHermitian": '(residual)',
    "NotProjector": '(residual)',
    "OddDimension": '(dim)',
    "ParseError": '(path, detail)',
    "Projector": '(matrix, rank)',
    "SmearedMeanReport": '(value, scaled_mean)',
    "SpectrumOutOfRange": '(eigenvalue, lo, hi)',
    "TSIRELSON_BOUND": None,
    "UnsharpJointError": None,
    "ValidationError": "(invariant, residual=None, detail='')",
    "box_chsh": '(box)',
    "check_joint": '(j, o1lam, o2lam)',
    "chsh": '(state, a1, a2, b1, b2)',
    "compress": '(g)',
    "correlation": '(state, a, b)',
    "criterion_value": '(m, n, lam)',
    "deterministic_box": '(alice, bob)',
    "feasibility_oracle": '(o1lam, o2lam, max_iter=20000)',
    "lambda_opt_search": '(pair_source, seed=2026)',
    "local_deterministic_boxes": '()',
    "matrix_from_json": '(obj)',
    "matrix_to_json": '(m)',
    "mean_value": '(obs, state)',
    "min_eigenvalue": '(m)',
    "neumark_dilate": '(obs)',
    "optimal_settings": '()',
    "povm_joint_observable": '(o1, o2, lam)',
    "pr_box": '()',
    "projector_onto": '(vec)',
    "pvm_joint_observable": '(p1, p2, lam)',
    "qubit_joint_observable": '(m, n, lam)',
    "singlet": '()',
    "smear": '(obs, lam)',
    "smeared_chsh": '(state, a1, a2, b1, b2, lam)',
    "smeared_mean": '(obs, lam, state)',
    "tensor": '(a, b)',
    "two_projector_blocks": '(p, q)',
    "validate_lambda": '(lam)',
    "white_noise_box": '()',
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
