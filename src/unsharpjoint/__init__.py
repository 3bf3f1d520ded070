"""Joint measurability of unsharp dichotomic observables and CHSH bounds.

The package constructs joint observables for pairs of smeared two-outcome
quantum measurements, locates the optimal unsharpness 1/sqrt(2) below
which every pair becomes jointly measurable, and ties that threshold to
the CHSH expression: smearing one wing by lam rescales the quantum value
2*sqrt(2) down to the local bound 2 exactly at lam = 1/sqrt(2).  Classical
(deterministic-box) and PR-box reference points sit at the two ends of
the no-signaling range.
"""

from .errors import ParseError, UnsharpJointError, ValidationError
from .operators import (
    DensityMatrix,
    DichotomicObservable,
    Effect,
    Projector,
    matrix_from_json,
    matrix_to_json,
)
from .unsharp import mean_value, smear, validate_lambda
from .decompose import (
    ANCILLA_CONVENTION,
    Block,
    BlockDecomposition,
    compress,
    neumark_dilate,
    two_projector_blocks,
)
from .joint import (
    LAMBDA_OPT,
    BlochVector,
    FeasibilityReport,
    JointObservable,
    JointResiduals,
    check_joint,
    criterion_value,
    feasibility_oracle,
    lambda_opt_search,
    povm_joint_observable,
    pvm_joint_observable,
    qubit_joint_observable,
    worst_case_pair,
)
from .bell import (
    ChshReport,
    NoSignalingBox,
    TSIRELSON_BOUND,
    box_chsh,
    chsh,
    local_deterministic_boxes,
    optimal_settings,
    pr_box,
    singlet,
    smeared_chsh,
)

__version__ = "0.1.0"

__all__ = [
    "ANCILLA_CONVENTION",
    "Block",
    "BlockDecomposition",
    "BlochVector",
    "ChshReport",
    "DensityMatrix",
    "DichotomicObservable",
    "Effect",
    "FeasibilityReport",
    "JointObservable",
    "JointResiduals",
    "LAMBDA_OPT",
    "NoSignalingBox",
    "ParseError",
    "Projector",
    "TSIRELSON_BOUND",
    "UnsharpJointError",
    "ValidationError",
    "box_chsh",
    "check_joint",
    "chsh",
    "compress",
    "criterion_value",
    "feasibility_oracle",
    "lambda_opt_search",
    "local_deterministic_boxes",
    "matrix_from_json",
    "matrix_to_json",
    "mean_value",
    "neumark_dilate",
    "optimal_settings",
    "povm_joint_observable",
    "pr_box",
    "pvm_joint_observable",
    "qubit_joint_observable",
    "singlet",
    "smear",
    "smeared_chsh",
    "two_projector_blocks",
    "validate_lambda",
    "worst_case_pair",
]
