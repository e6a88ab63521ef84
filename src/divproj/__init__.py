"""Minimum-divergence estimation on finite alphabets.

Library + CLI for four divergence families (KL, Renyi, density power,
relative alpha-entropy), their matched parametric families, estimating and
projection equations, forward projections with Pythagorean certificates,
generalized sufficient statistics, and brute-force grid oracles.
"""

__version__ = "0.1.0"

from .divergences import (
    DivergenceKind,
    density_power,
    divergence,
    kl,
    rel_alpha_entropy,
    renyi_d,
)
from .errors import (
    AllZeroError,
    CertificateMismatch,
    DivprojError,
    DomainError,
    DomainViolation,
    EmptyFeasibleGrid,
    EmptySampleError,
    InfeasibleError,
    InputError,
    InvalidDistribution,
    NegativeWeightError,
    NoAdmissibleTheta,
    NoConvergence,
    NormalizerNotFound,
    NumericFailure,
    UnknownLabelError,
)
from .estimators import (
    EstimatorKind,
    estimating_residual,
    is_matched_pair,
    likelihood,
    maximize_likelihood,
    score,
    score_matrix,
    solve_estimating_equation,
)
from .families import (
    FamilyKind,
    FamilySpec,
    LinearFamilySpec,
    escort_family_map,
    escort_family_spec,
    escort_parameter_map,
    eval_member,
    eval_members_batch,
    is_admissible,
    member_with_normalizer,
    membership_residual,
    normalizer_root,
    theta_of_member,
)
from .measures import (
    Alphabet,
    Distribution,
    SampleData,
    alpha_norm,
    empirical,
    escort,
    normalize,
)
from .oracle import SimplexGrid, ThetaGrid, grid_forward_min, grid_reverse_min
from .projection import (
    ForwardProjectionResult,
    ReverseProjectionResult,
    fit_projection_form,
    forward_dpd_projection,
    power_law_moment_jacobian,
    power_law_moment_map,
    projection_residual,
    pythagorean_gap,
    reverse_dpd_projection,
    solve_projection_equation,
)
from .solvers import Route, SolveReport
from .sufficiency import (
    FactorizationReport,
    SufficientStatistic,
    equal_statistic_pairs,
    factorization_check,
    likelihood_split,
    sufficient_statistic,
)
