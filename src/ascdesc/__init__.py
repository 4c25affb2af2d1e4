"""Ascent/descent invariants and spectra for linear operators.

Exact Gaussian-rational linear algebra feeds kernel/range chain
analysis, truncation-tower models of shift-like operators, a
theorem-verification harness, and a numerical lab for subspace gaps
and operator-sequence convergence.
"""

__version__ = "0.1.0"

from .gq import GQ, GaussianRational, format_scalar, parse_scalar
from .exact import (
    Matrix,
    Subspace,
    block_diag,
    char_poly,
    codim,
    image_basis,
    is_direct_sum,
    kernel_basis,
    matrix_from_obj,
    matrix_to_obj,
    rank,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .chains import (
    ChainReport,
    chain_report,
    compression,
    direct_sum,
    prop_asc_predicate,
    prop_dsc_predicate,
    ptp_block_form,
)
from .numeric import (
    FloatSubspace,
    Tolerance,
    delta,
    dist_to_subspace,
    float_image,
    float_kernel,
    gamma,
    gap,
    to_float,
)
from .spectra import (
    SpectrumProfile,
    ascent_spectrum,
    descent_spectrum,
    eigenvalues_exact,
    point_profile,
    poly_spectral_map_check,
)
from .tower import (
    BandedSpec,
    DenseSpec,
    DirectSumSpec,
    EventuallyPeriodic,
    FiniteRankSpec,
    OperatorSpec,
    SumSpec,
    TowerConfig,
    TowerVerdict,
    backward_shift,
    forward_shift,
    identity_tail,
    is_power_finite_rank,
    spec_from_obj,
    tower_spectrum,
    tower_verdict,
)
from .theorems import (
    HypothesisReport,
    TheoremVerdict,
    check_H1,
    check_H2,
    check_hypotheses,
    in_M_set,
    in_N_set,
    in_R_set,
    instance_for,
    invertible_commuting_pair,
    random_commuting_pair,
    random_h1_family,
    random_matrix,
    run_batch,
    verify,
    verify_tower,
)
from .convergence import (
    GapTrajectory,
    Perturbation,
    SequenceSpec,
    classify_convergence,
    limsup_gamma,
    probe,
    sequence_from_obj,
    trajectory,
)
